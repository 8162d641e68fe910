// mrhs-analyze-fixture: as=src/sparse/fx_aligned_load.cpp
// expect: aligned-load-contract:1
//
// Known-bad: aligned AVX loads/stores on pointers that cross a function
// boundary, with no alignment contract in the file. Only the first
// aligned intrinsic is reported. A comment that names
// MRHS_ASSUME_ALIGNED is not a contract: the rule reads code only.
// Good twin: good_aligned_load_contract.cpp.
#include <cstddef>
#include <immintrin.h>

void scale4(const double* x, double* y, std::size_t n) {
    for (std::size_t i = 0; i < n; i += 4) {
        const __m256d v = _mm256_load_pd(x + i);
        _mm256_store_pd(y + i, _mm256_add_pd(v, v));
    }
}
