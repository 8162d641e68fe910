#include "sparse/gspmv.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/obs.hpp"
#include "sparse/kernel_dispatch.hpp"
#include "sparse/simd_kernels.hpp"
#include "util/contracts.hpp"
#include "util/fault_injection.hpp"
#include "util/parallel.hpp"

namespace mrhs::sparse {

namespace {

void check_shapes(const BcrsMatrix& a, const MultiVector& x,
                  const MultiVector& y) {
  if (x.rows() != a.cols() || y.rows() != a.rows() ||
      x.cols() != y.cols() || x.cols() == 0) {
    throw std::invalid_argument("gspmv: shape mismatch");
  }
}

/// Map the public kernel request onto a dispatch-table entry. nullptr
/// selects the inline reference loop below (the verification path,
/// kept out of the table on purpose so it cannot be picked by auto).
const kernels::KernelVariant* resolve_variant(GspmvKernel kernel,
                                              std::size_t m) {
  using kernels::Dispatch;
  using kernels::Isa;
  const Dispatch& d = Dispatch::instance();
  switch (kernel) {
    case GspmvKernel::kReference:
      return nullptr;
    case GspmvKernel::kForceScalar:
      return &d.variant(Isa::kScalar);
    case GspmvKernel::kForceAvx2:
      return &d.variant(Isa::kAvx2);
    case GspmvKernel::kForceAvx512:
      return &d.variant(Isa::kAvx512);
    case GspmvKernel::kAuto:
      break;
  }
  return &d.select(m);
}

/// Run one range of block rows through a resolved variant (nullptr =
/// inline reference loop).
void run_rows(const BcrsMatrix& a, const double* x, double* y, std::size_t m,
              RowRange range, const kernels::KernelVariant* variant) {
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const double* values = a.values().data();

  if (m == 1) {
    // Every ISA (forced or auto) shares this one specialized SPMV
    // instance: a --kernel override cannot perturb single-vector
    // results, and the m = 1 path keeps its pre-dispatch code exactly.
    for (std::size_t bi = range.begin; bi < range.end; ++bi) {
      kernels::block_row_spmv(values, col_idx.data(), row_ptr[bi],
                              row_ptr[bi + 1], x, y + bi * 3);
    }
    return;
  }
  if (variant == nullptr) {
    for (std::size_t bi = range.begin; bi < range.end; ++bi) {
      kernels::block_row_generic(values, col_idx.data(), row_ptr[bi],
                                 row_ptr[bi + 1], x, m, y + bi * 3 * m);
    }
    return;
  }
  variant->block_rows(values, col_idx.data(), row_ptr.data(), range.begin,
                      range.end, x, m, y);
}

}  // namespace

void gspmv_reference(const BcrsMatrix& a, const MultiVector& x,
                     MultiVector& y) {
  check_shapes(a, x, y);
  run_rows(a, x.data(), y.data(), x.cols(), RowRange{0, a.block_rows()},
           /*variant=*/nullptr);
}

void spmv_reference(const BcrsMatrix& a, std::span<const double> x,
                    std::span<double> y) {
  if (x.size() != a.cols() || y.size() != a.rows()) {
    throw std::invalid_argument("spmv: shape mismatch");
  }
  run_rows(a, x.data(), y.data(), 1, RowRange{0, a.block_rows()},
           /*variant=*/nullptr);
}

void gspmv_colmajor(const BcrsMatrix& a, const double* x, double* y,
                    std::size_t m) {
  const auto row_ptr = a.row_ptr();
  const auto col_idx = a.col_idx();
  const double* values = a.values().data();
  const std::size_t n_rows = a.rows();
  const std::size_t n_cols = a.cols();
  for (std::size_t t = 0; t < n_rows * m; ++t) y[t] = 0.0;
  for (std::size_t bi = 0; bi < a.block_rows(); ++bi) {
    for (std::int64_t p = row_ptr[bi]; p < row_ptr[bi + 1]; ++p) {
      const double* blk = values + static_cast<std::size_t>(p) * 9;
      const std::size_t bj = col_idx[p];
      // Column-major: consecutive vector values of one column are
      // n apart, so each block touches 6m scattered cache lines.
      for (std::size_t j = 0; j < m; ++j) {
        const double* xc = x + j * n_cols + bj * 3;
        double* yc = y + j * n_rows + bi * 3;
        const double x0 = xc[0], x1 = xc[1], x2 = xc[2];
        yc[0] += blk[0] * x0 + blk[1] * x1 + blk[2] * x2;
        yc[1] += blk[3] * x0 + blk[4] * x1 + blk[5] * x2;
        yc[2] += blk[6] * x0 + blk[7] * x1 + blk[8] * x2;
      }
    }
  }
}

GspmvEngine::GspmvEngine(const BcrsMatrix& a, int threads) : a_(&a) {
  threads_ = threads > 0 ? threads : util::max_threads();
  parts_ = balanced_row_partition(a, static_cast<std::size_t>(threads_));
}

void GspmvEngine::apply(const MultiVector& x, MultiVector& y,
                        GspmvKernel kernel) const {
  check_shapes(*a_, x, y);
  const std::size_t m = x.cols();
  // The SIMD kernels stream whole cache lines; MultiVector storage is
  // 64-byte aligned by construction (util::AlignedVector). No finite
  // contract here: a column that broke down in the multi-RHS CG keeps
  // riding the shared apply, non-finite, until the other columns
  // finish, and every column's result depends on its own inputs only.
  const double* xp = MRHS_ASSUME_ALIGNED(x.data(), util::kCacheLineBytes);
  double* yp = MRHS_ASSUME_ALIGNED(y.data(), util::kCacheLineBytes);
  OBS_SPAN_VAR(span, "gspmv.apply");
  span.arg("m", static_cast<double>(m));
  // Metrics-gated telemetry clock: the timestamps feed obs counters
  // and roofline attribution only and never touch the numerics, so
  // replay/rollback stays bitwise.
  // mrhs-analyze-ok(determinism): telemetry-only wall clock
  using Clock = std::chrono::steady_clock;
  const bool metrics = obs::metrics_enabled();
  // Resolve ISA once per apply (not per thread / per block row): the
  // workers share one table entry, so the override and cpuid logic
  // stay off the hot path entirely.
  const kernels::KernelVariant* variant =
      m == 1 ? nullptr : resolve_variant(kernel, m);
  const Clock::time_point t0 = metrics ? Clock::now() : Clock::time_point{};

  if (threads_ == 1) {
    run_rows(*a_, xp, yp, m, RowRange{0, a_->block_rows()}, variant);
  } else {
    // Workers write disjoint block-row ranges of y (parts_ is a
    // partition), so the region body is race-free by construction;
    // thread_safety_test pins this down under TSan.
    util::parallel_regions(threads_, [&](int tid) {
      if (tid < static_cast<int>(parts_.size())) {
        run_rows(*a_, xp, yp, m, parts_[tid], variant);
      }
    });
  }
  // Chaos site: one flipped entry in the product block, as a kernel
  // bug or FP corruption mid-solve would produce it.
  MRHS_FAULT_POINT("gspmv.apply.nan", yp, a_->rows() * m);

  if (metrics) {
    record_metrics(m, std::chrono::duration<double>(Clock::now() - t0).count(),
                   variant);
  }
}

void GspmvEngine::apply(std::span<const double> x, std::span<double> y) const {
  if (x.size() != a_->cols() || y.size() != a_->rows()) {
    throw std::invalid_argument("spmv: shape mismatch");
  }
  OBS_SPAN_VAR(span, "gspmv.apply");
  span.arg("m", 1.0);
  // Metrics-gated telemetry clock: the timestamps feed obs counters
  // and roofline attribution only and never touch the numerics, so
  // replay/rollback stays bitwise.
  // mrhs-analyze-ok(determinism): telemetry-only wall clock
  using Clock = std::chrono::steady_clock;
  const bool metrics = obs::metrics_enabled();
  const Clock::time_point t0 = metrics ? Clock::now() : Clock::time_point{};

  if (threads_ == 1) {
    run_rows(*a_, x.data(), y.data(), 1, RowRange{0, a_->block_rows()},
             /*variant=*/nullptr);
  } else {
    util::parallel_regions(threads_, [&](int tid) {
      if (tid < static_cast<int>(parts_.size())) {
        run_rows(*a_, x.data(), y.data(), 1, parts_[tid],
                 /*variant=*/nullptr);
      }
    });
  }

  if (metrics) {
    record_metrics(1, std::chrono::duration<double>(Clock::now() - t0).count(),
                   nullptr);
  }
}

void GspmvEngine::record_metrics(std::size_t m, double seconds,
                                 const kernels::KernelVariant* variant) const {
  const double bytes = min_bytes(m);
  OBS_COUNTER_ADD("gspmv.calls", 1);
  OBS_COUNTER_ADD("gspmv.vector_products", m);
  OBS_COUNTER_ADD("gspmv.bytes", bytes);
  OBS_COUNTER_ADD("gspmv.flops", flops(m));
  OBS_COUNTER_ADD("gspmv.seconds", seconds);
  if (seconds > 0.0) {
    // Effective bandwidth of this apply against the paper's minimum
    // traffic Mtr (eq. 8): how close the kernel runs to the roofline.
    OBS_GAUGE_SET("gspmv.effective_bandwidth_gbps",
                  bytes / seconds * 1e-9);
  }
  if (variant != nullptr) {
    // Which dispatched ISA ran (0 = scalar, 1 = avx2, 2 = avx512) and
    // a per-ISA apply count, so bench sidecars and --metrics-out can
    // attribute throughput to the kernel that produced it. The m = 1
    // path reports nothing here: it bypasses the dispatch table.
    OBS_GAUGE_SET("gspmv.kernel_isa",
                  static_cast<double>(static_cast<std::uint8_t>(variant->isa)));
    switch (variant->isa) {
      case kernels::Isa::kScalar:
        OBS_COUNTER_ADD("gspmv.kernel.scalar_applies", 1);
        break;
      case kernels::Isa::kAvx2:
        OBS_COUNTER_ADD("gspmv.kernel.avx2_applies", 1);
        break;
      case kernels::Isa::kAvx512:
        OBS_COUNTER_ADD("gspmv.kernel.avx512_applies", 1);
        break;
    }
  }
}

double GspmvEngine::min_bytes(std::size_t m) const {
  const double nb = static_cast<double>(a_->block_rows());
  const double nnzb = static_cast<double>(a_->nnzb());
  const double sx = sizeof(double);
  // Read X once, read + write Y (3 scalar rows per block row each),
  // plus block values (72 B) and BCRS indexing (4 B col index per
  // block, 4 B amortized row pointer per block row).
  return static_cast<double>(m) * nb * 3.0 * sx * 3.0 + 4.0 * nb +
         nnzb * (4.0 + 72.0);
}

}  // namespace mrhs::sparse
