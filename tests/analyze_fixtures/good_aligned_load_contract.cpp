// mrhs-analyze-fixture: as=src/sparse/fx_aligned_load_ok.cpp
// expect: none
//
// Known-good twin of bad_aligned_load_contract.cpp: the pointers carry
// an MRHS_ASSUME_ALIGNED contract, which debug and sanitizer builds
// check before the aligned intrinsics run.
#include <cstddef>
#include <immintrin.h>

#include "util/contracts.hpp"

void scale4(const double* x, double* y, std::size_t n) {
    const double* xa = MRHS_ASSUME_ALIGNED(x, 32);
    double* ya = MRHS_ASSUME_ALIGNED(y, 32);
    for (std::size_t i = 0; i < n; i += 4) {
        const __m256d v = _mm256_load_pd(xa + i);
        _mm256_store_pd(ya + i, _mm256_add_pd(v, v));
    }
}
