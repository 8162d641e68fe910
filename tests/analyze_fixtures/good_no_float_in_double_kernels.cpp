// mrhs-analyze-fixture: as=src/dense/fx_float_ok.cpp
// expect: none
//
// Known-good twin of bad_no_float_in_double_kernels.cpp: the
// accumulator stays double. The word float in this comment and in the
// string below is not code.
#include <cstddef>
#include <cstdio>

double dot(const double* x, const double* y, std::size_t n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        acc += x[i] * y[i];
    }
    std::printf("dot: no float anywhere\n");
    return acc;
}
