// mrhs-analyze-fixture: as=src/solver/fx_status.cpp
// expect: status-propagation:2
//
// Known-bad: calls to solver entry points whose Result (carrying
// SolveStatus) is discarded as a bare expression statement — breakdown
// or stagnation would go unnoticed.
// Good twin: good_status_propagation.cpp.

struct CgResult {
    int status;
};
struct LadderResult {
    int status;
};

CgResult conjugate_gradient(const double* b, double* x, int n);
LadderResult block_solve_with_ladder(const double* b, double* x, int n);

void advance(const double* b, double* x, int n) {
    conjugate_gradient(b, x, n);       // result discarded
    block_solve_with_ladder(b, x, n);  // result discarded
}
