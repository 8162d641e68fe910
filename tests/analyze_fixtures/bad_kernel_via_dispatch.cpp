// mrhs-analyze-fixture: as=src/solver/fx_kernel.cpp
// expect: kernel-via-dispatch:1
//
// Known-bad: a block-row microkernel called from outside src/sparse.
// It skips the runtime cpuid check and the --kernel override, so an
// AVX2 build of this TU would run AVX2 code on any CPU.
// Good twin: good_kernel_via_dispatch.cpp.
#include <cstddef>
#include <cstdint>

#include "sparse/simd_kernels.hpp"

void row(const double* values, const std::int32_t* col_idx,
         std::int64_t begin, std::int64_t end, const double* x,
         std::size_t m, double* y_row) {
    mrhs::sparse::kernels::block_row_avx2(values, col_idx, begin, end, x, m,
                                          y_row);
}
