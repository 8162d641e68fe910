#include "solver/block_cg.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/aligned.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace mrhs::solver {

namespace {

/// Where one column's recurrence stands.
enum class Column : std::uint8_t { kActive, kConverged, kBreakdown };

[[nodiscard]] SolveStatus column_status(Column c) {
  switch (c) {
    case Column::kActive: return SolveStatus::kMaxIters;
    case Column::kConverged: return SolveStatus::kConverged;
    case Column::kBreakdown: return SolveStatus::kBreakdown;
  }
  return SolveStatus::kBreakdown;
}

}  // namespace

BlockCgResult block_conjugate_gradient(const LinearOperator& a,
                                       const sparse::MultiVector& b,
                                       sparse::MultiVector& x,
                                       const BlockCgOptions& opts) {
  const std::size_t n = a.size();
  const std::size_t m = b.cols();
  if (b.rows() != n || x.rows() != n || x.cols() != m || m == 0) {
    throw std::invalid_argument("block_cg: shape mismatch");
  }
  MRHS_REQUIRE(opts.tol > 0.0, "block_cg: tolerance must be positive");
  // No finite contract on b/x: a non-finite column must surface as
  // SolveStatus::kBreakdown in that column, never as an abort.
  OBS_SPAN_VAR(span, "block_cg.solve");
  span.arg("m", static_cast<double>(m));
  const util::WallTimer solve_timer;
  auto record_exit = [&](BlockCgResult& res) -> BlockCgResult& {
    span.arg("iterations", static_cast<double>(res.iterations));
    span.arg("converged", res.converged() ? 1.0 : 0.0);
    OBS_COUNTER_ADD("block_cg.solves", 1);
    OBS_COUNTER_ADD("block_cg.iterations", res.iterations);
    if (obs::metrics_enabled()) {
      // Roofline accumulators for obs::PerfLedger. Per iteration, past
      // the operator's own traffic model for every apply_block, three
      // passes over all m lanes of every row (a frozen column's lanes
      // are masked, not skipped): the p^T q dots (2nm flops, 2nm
      // doubles), the R update with its norms (4nm, 3nm) and the X and
      // P updates (4nm, 5nm). The block partials (4m doubles per 128
      // rows) are left out. Setup: R = B - A X, the B and R norms and
      // P = R (5nm, 7nm).
      const double iters = static_cast<double>(res.iterations);
      const double applies = iters + 1.0;  // + initial residual
      const double nm = static_cast<double>(n) * static_cast<double>(m);
      OBS_COUNTER_ADD("block_cg.bytes", applies * a.apply_bytes(m) +
                                            (10.0 * iters + 7.0) * nm * 8.0);
      OBS_COUNTER_ADD("block_cg.flops", applies * a.apply_flops(m) +
                                            (10.0 * iters + 5.0) * nm);
      OBS_COUNTER_ADD("block_cg.seconds", solve_timer.seconds());
    }
    if (res.status == SolveStatus::kBreakdown) {
      OBS_COUNTER_ADD("block_cg.breakdowns", 1);
      OBS_INSTANT("block_cg.breakdown");
    }
    OBS_HISTOGRAM_OBSERVE("block_cg.iterations_per_solve", res.iterations,
                          obs::exponential_buckets(1.0, 2.0, 11));
    for (const double rr : res.relative_residuals) {
      OBS_HISTOGRAM_OBSERVE("block_cg.exit_relative_residual", rr,
                            obs::exponential_buckets(1e-10, 10.0, 10));
    }
    return res;
  };

  // Every pass below walks the rows in the blocks of
  // sparse::reduce_columns, on the operator's threads once the block
  // is large enough (sparse::pass_threads), with the m columns as SIMD
  // lanes. Lane masks (1.0 on, 0.0 off) pick the columns a pass
  // updates; an off lane keeps its value bit for bit. Updates are
  // elementwise and reductions keep the blocked order, so column j's
  // arithmetic depends neither on the other columns nor on the thread
  // count.
  const int threads = sparse::pass_threads(n, m, a.threads());
  sparse::MultiVector r(n, m), p(n, m), q(n, m);
  util::AlignedVector<double> partials(sparse::reduce_blocks(n) * m);
  std::vector<double> denom(m), rr(m), rr_new(m), pq(m), alpha(m), beta(m);
  // step: the column takes this iteration's step (cleared again if
  // its new residual is not finite, so X keeps its value); run: it is
  // still running (P moves).
  std::vector<double> step(m), run(m);
  std::vector<Column> state(m, Column::kActive);
  b.col_norms(denom);
  for (double& d : denom) d = d > 0.0 ? d : 1.0;

  // R = B - A X.
  a.apply_block(x, r);
  axpby(1.0, b, -1.0, r);
  r.col_dots(r, rr);

  BlockCgResult result;
  // NaN until a column records a finite residual.
  result.relative_residuals.assign(m,
                                   std::numeric_limits<double>::quiet_NaN());
  // Record column j's residual norm and stop the column if it
  // converged; a non-finite norm stops it as a breakdown and leaves
  // its last finite record in place.
  auto settle = [&](std::size_t j, double rr_j) {
    const double rel = std::sqrt(rr_j) / denom[j];
    if (!std::isfinite(rel)) {
      state[j] = Column::kBreakdown;
      return;
    }
    result.relative_residuals[j] = rel;
    OBS_HISTOGRAM_OBSERVE("block_cg.iter_relative_residual", rel,
                          obs::exponential_buckets(1e-8, 10.0, 10));
    if (rel <= opts.tol) state[j] = Column::kConverged;
  };
  std::size_t running = 0;
  for (std::size_t j = 0; j < m; ++j) {
    settle(j, rr[j]);
    if (state[j] == Column::kActive) ++running;
  }

  p = r;
  // Plain pointers for the pass bodies: GCC 12 vectorizes the masked
  // loops below through these, but not through the vectors.
  const double* lane_step = step.data();
  const double* lane_run = run.data();
  const double* al = alpha.data();
  const double* be = beta.data();
  for (std::size_t it = 0; it < opts.max_iters && running > 0; ++it) {
    a.apply_block(p, q);  // Q = A P: the iteration's one GSPMV
    result.iterations = it + 1;
    sparse::reduce_columns(
        n, threads, partials, pq,
        [&](std::size_t first, std::size_t last, double* partial) {
          for (std::size_t i = first; i < last; ++i) {
            const double* pi = p.row(i).data();
            const double* qi = q.row(i).data();
#pragma omp simd
            for (std::size_t j = 0; j < m; ++j) partial[j] += pi[j] * qi[j];
          }
        });

    // A column whose p^T A p is not positive (or not finite) stops
    // here, keeping its iterate; the others take their step.
    for (std::size_t j = 0; j < m; ++j) {
      step[j] = 0.0;
      if (state[j] != Column::kActive) continue;
      if (pq[j] > 0.0 && pq[j] < std::numeric_limits<double>::infinity()) {
        alpha[j] = rr[j] / pq[j];
        step[j] = 1.0;
      } else {
        state[j] = Column::kBreakdown;
      }
    }
    // R -= Q alpha, with the new residual norms.
    sparse::reduce_columns(
        n, threads, partials, rr_new,
        [&](std::size_t first, std::size_t last, double* partial) {
          for (std::size_t i = first; i < last; ++i) {
            double* ri = r.row(i).data();
            const double* qi = q.row(i).data();
#pragma omp simd
            for (std::size_t j = 0; j < m; ++j) {
              const double rij =
                  lane_step[j] != 0.0 ? ri[j] - al[j] * qi[j] : ri[j];
              ri[j] = rij;
              partial[j] += rij * rij;
            }
          }
        });
    // A non-finite residual discards the step: X is only updated below
    // for the columns that keep it.
    running = 0;
    for (std::size_t j = 0; j < m; ++j) {
      run[j] = 0.0;
      if (step[j] == 0.0) continue;
      settle(j, rr_new[j]);
      if (state[j] == Column::kBreakdown) {
        step[j] = 0.0;
        continue;
      }
      if (state[j] == Column::kActive) {
        beta[j] = rr_new[j] / rr[j];
        rr[j] = rr_new[j];
        run[j] = 1.0;
        ++running;
      }
    }
    // X += P alpha, then P = R + P beta for the columns still running.
    // The new P goes into Q's storage, which the next GSPMV overwrites
    // anyway, and the two swap: every core read P's rows in the GSPMV,
    // so rewriting them in place would first invalidate those copies
    // (at 4 threads that made this pass 2-3x slower), while Q's rows
    // sit with the core that computed them.
    sparse::for_each_row_block(
        n, threads, [&](std::size_t first, std::size_t last, std::size_t) {
          for (std::size_t i = first; i < last; ++i) {
            double* xi = x.row(i).data();
            const double* pi = p.row(i).data();
            const double* ri = r.row(i).data();
            double* next = q.row(i).data();
#pragma omp simd
            for (std::size_t j = 0; j < m; ++j) {
              xi[j] = lane_step[j] != 0.0 ? xi[j] + al[j] * pi[j] : xi[j];
              next[j] = lane_run[j] != 0.0 ? ri[j] + be[j] * pi[j] : pi[j];
            }
          }
        });
    std::swap(p, q);
  }

  result.status = SolveStatus::kConverged;
  for (const Column c : state) {
    result.status = worse_status(result.status, column_status(c));
  }
  return record_exit(result);
}

}  // namespace mrhs::solver
