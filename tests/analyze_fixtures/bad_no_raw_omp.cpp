// mrhs-analyze-fixture: as=src/sparse/fx_omp.cpp
// expect: no-raw-omp:1
//
// Known-bad: a raw `#pragma omp parallel` outside util/parallel.hpp.
// On the std::thread backend (-DMRHS_OPENMP=OFF) this region would
// silently run serial and never be TSan-checked.
// Good twin: good_no_raw_omp.cpp.

void scale(double* y, int n) {
#pragma omp parallel for
    for (int i = 0; i < n; ++i) {
        y[i] *= 2.0;
    }
}
