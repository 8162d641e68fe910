// mrhs-analyze-fixture: as=src/sparse/fx_aligned_alloc.cpp
// expect: aligned-alloc-outside-util:2
//
// Known-bad: raw aligned allocation outside util/aligned.hpp. Each
// site re-implements the 64-byte contract that AlignedAllocator
// asserts in one place, and nothing checks that the alignment the
// kernels assume is the one requested here.
// Good twin: good_aligned_alloc_outside_util.cpp.
#include <cstddef>
#include <cstdlib>
#include <new>

double* make_block(std::size_t n) {
    return static_cast<double*>(std::aligned_alloc(64, n * sizeof(double)));
}

double* make_block_new(std::size_t n) {
    return static_cast<double*>(
        ::operator new(n * sizeof(double), std::align_val_t{64}));
}
