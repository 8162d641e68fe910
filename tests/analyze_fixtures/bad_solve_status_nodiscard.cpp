// mrhs-analyze-fixture: as=src/solver/cg.hpp
// expect: solve-status-nodiscard:1
//
// Known-bad: a solver entry-point declaration without [[nodiscard]].
// The compiler would then accept a discarded call anywhere, including
// in tests/, which status-propagation does not scan. The second
// declaration keeps its attribute and must NOT be flagged.
// Good twin: good_solve_status_nodiscard.cpp.

struct CgResult {
    int status;
};

CgResult conjugate_gradient(const double* b, double* x, int n);

[[nodiscard]] CgResult preconditioned_conjugate_gradient(const double* b,
                                                         double* x, int n);
