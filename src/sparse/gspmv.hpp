// Generalized sparse matrix-vector product: Y = A * X with a block of
// m vectors (the paper's GSPMV kernel), plus the single-vector SPMV.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sparse/bcrs.hpp"
#include "sparse/multivector.hpp"
#include "sparse/partition.hpp"

namespace mrhs::sparse {

namespace kernels {
struct KernelVariant;
}  // namespace kernels

enum class GspmvKernel {
  kReference,    // portable loops inline in gspmv.cpp (verification path)
  kAuto,         // best ISA the CPU + binary support (runtime dispatch;
                 // honors the --kernel/MRHS_KERNEL override)
  kForceScalar,  // pin the dispatched scalar variant
  kForceAvx2,    // pin the AVX2/FMA variant (falls back if unavailable)
  kForceAvx512,  // pin the AVX-512 variant (falls back if unavailable)
};

/// Single-threaded reference implementations (used for verification).
void gspmv_reference(const BcrsMatrix& a, const MultiVector& x,
                     MultiVector& y);
void spmv_reference(const BcrsMatrix& a, std::span<const double> x,
                    std::span<double> y);

/// Column-major GSPMV ablation: X and Y are m column vectors each
/// stored contiguously with leading dimension = rows (i.e. m separate
/// SPMV passes fused at the block level but with strided vector
/// access). Exists to demonstrate why the paper stores vectors
/// row-major.
void gspmv_colmajor(const BcrsMatrix& a, const double* x, double* y,
                    std::size_t m);

/// Reusable GSPMV executor. Construction precomputes an nnz-balanced
/// assignment of block rows to threads (the paper's "thread blocking").
class GspmvEngine {
 public:
  /// threads == 0 means use omp_get_max_threads().
  explicit GspmvEngine(const BcrsMatrix& a, int threads = 0);

  /// Y = A X, both with m = x.cols() columns.
  void apply(const MultiVector& x, MultiVector& y,
             GspmvKernel kernel = GspmvKernel::kAuto) const;

  /// y = A x (single vector).
  void apply(std::span<const double> x, std::span<double> y) const;

  [[nodiscard]] const BcrsMatrix& matrix() const { return *a_; }
  [[nodiscard]] int threads() const { return threads_; }

  /// Flops performed by one apply() with m vectors.
  [[nodiscard]] double flops(std::size_t m) const {
    return 18.0 * static_cast<double>(a_->nnzb()) * static_cast<double>(m);
  }

  /// Minimum bytes moved from memory by one apply() with m vectors
  /// (matrix + indices + read X + read/write Y), the paper's Mtr with
  /// k(m) = 0.
  [[nodiscard]] double min_bytes(std::size_t m) const;

 private:
  /// Feed the gspmv.* counters, the effective-bandwidth gauge, and the
  /// dispatched-ISA attribution after one timed apply (only called when
  /// metrics are enabled; variant == nullptr for the m = 1 / reference
  /// paths, which bypass the dispatch table).
  void record_metrics(std::size_t m, double seconds,
                      const kernels::KernelVariant* variant) const;

  const BcrsMatrix* a_;
  int threads_;
  std::vector<RowRange> parts_;
};

}  // namespace mrhs::sparse
