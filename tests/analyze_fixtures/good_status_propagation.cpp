// mrhs-analyze-fixture: as=src/solver/fx_status_ok.cpp
// expect: none
//
// Known-good twin of bad_status_propagation.cpp: the result is bound
// and branched on.

struct CgResult {
    int status;
};

CgResult conjugate_gradient(const double* b, double* x, int n);

int advance_checked(const double* b, double* x, int n) {
    const CgResult r = conjugate_gradient(b, x, n);
    if (r.status != 0) {
        return r.status;
    }
    return 0;
}
