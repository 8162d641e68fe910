// mrhs-analyze-fixture: as=src/solver/cg.hpp
// expect: none
//
// Known-good twin of bad_solve_status_nodiscard.cpp: both entry points
// are [[nodiscard]], so a discarded result fails a -Werror build.

struct CgResult {
    int status;
};

[[nodiscard]] CgResult conjugate_gradient(const double* b, double* x,
                                          int n);

[[nodiscard]] CgResult preconditioned_conjugate_gradient(const double* b,
                                                         double* x, int n);
