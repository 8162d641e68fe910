// mrhs-analyze-fixture: as=src/dense/fx_float.cpp
// expect: no-float-in-double-kernels:2
//
// Known-bad: single precision inside the double-precision numerical
// core. The float accumulator and the float round-trip each drop about
// half the mantissa without any warning.
// Good twin: good_no_float_in_double_kernels.cpp.
#include <cstddef>

double dot(const double* x, const double* y, std::size_t n) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
        acc += static_cast<float>(x[i] * y[i]);
    }
    return acc;
}
