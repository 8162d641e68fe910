// mrhs-analyze-fixture: as=src/solver/fx_kernel_ok.cpp
// expect: none
//
// Known-good twin of bad_kernel_via_dispatch.cpp: the product goes
// through GspmvEngine::apply, which picks a block_row_* variant via
// kernels::Dispatch at run time.
#include "sparse/gspmv.hpp"

void apply(const mrhs::sparse::GspmvEngine& engine,
           const mrhs::sparse::MultiVector& x, mrhs::sparse::MultiVector& y) {
    engine.apply(x, y, mrhs::sparse::GspmvKernel::kAuto);
}
