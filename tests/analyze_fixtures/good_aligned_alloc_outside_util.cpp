// mrhs-analyze-fixture: as=src/sparse/fx_aligned_alloc_ok.cpp
// expect: none
//
// Known-good twin of bad_aligned_alloc_outside_util.cpp: the buffer
// comes from util::AlignedVector, whose allocator owns the 64-byte
// contract. Naming std::aligned_alloc in a comment is not a call.
#include <cstddef>

#include "util/aligned.hpp"

double sum_block(std::size_t n) {
    mrhs::util::AlignedVector<double> block(n, 1.0);
    double sum = 0.0;
    for (const double v : block) {
        sum += v;
    }
    return sum;
}
