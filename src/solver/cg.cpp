#include "solver/cg.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "solver/preconditioner.hpp"
#include "util/contracts.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace mrhs::solver {

namespace {

/// Shared exit-path telemetry for both CG variants: span args plus the
/// iteration-count and exit-residual histograms (paper Fig. 6 data),
/// and the cg.* roofline accumulators for obs::PerfLedger. The traffic
/// model is approximate: per iteration one operator apply plus ~10n
/// flops / ~14n doubles of vector algebra (dots, x/r update, direction
/// update), and a 4n-flop / 6n-double setup.
CgResult finish_cg(obs::SpanGuard& span, CgResult result,
                   const LinearOperator& a, std::size_t n, double seconds) {
  span.arg("iterations", static_cast<double>(result.iterations));
  span.arg("converged", result.converged() ? 1.0 : 0.0);
  OBS_COUNTER_ADD("cg.solves", 1);
  OBS_COUNTER_ADD("cg.iterations", result.iterations);
  if (obs::metrics_enabled()) {
    const double iters = static_cast<double>(result.iterations);
    const double applies = iters + 1.0;  // + initial residual
    const double nd = static_cast<double>(n);
    OBS_COUNTER_ADD("cg.bytes",
                    applies * a.apply_bytes(1) +
                        (14.0 * iters + 6.0) * nd * 8.0);
    OBS_COUNTER_ADD("cg.flops",
                    applies * a.apply_flops(1) + (10.0 * iters + 4.0) * nd);
    OBS_COUNTER_ADD("cg.seconds", seconds);
  }
  OBS_HISTOGRAM_OBSERVE("cg.iterations_per_solve", result.iterations,
                        obs::exponential_buckets(1.0, 2.0, 11));
  OBS_HISTOGRAM_OBSERVE("cg.exit_relative_residual",
                        result.relative_residual,
                        obs::exponential_buckets(1e-10, 10.0, 10));
  return result;
}

}  // namespace

CgResult conjugate_gradient(const LinearOperator& a, std::span<const double> b,
                            std::span<double> x, const CgOptions& opts) {
  const std::size_t n = a.size();
  if (b.size() != n || x.size() != n) {
    throw std::invalid_argument("conjugate_gradient: size mismatch");
  }
  MRHS_REQUIRE(opts.tol > 0.0, "cg: tolerance must be positive");
  // No finite contract on b/x: the documented behavior for non-finite
  // operands is SolveStatus::kBreakdown, never an abort.
  OBS_SPAN_VAR(span, "cg.solve");
  const util::WallTimer solve_timer;

  std::vector<double> r(n), p(n), q(n);

  // r = b - A x (x is the initial guess).
  a.apply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];

  const double b_norm = util::norm2(b);
  CgResult result;
  if (b_norm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    result.status = SolveStatus::kConverged;
    return finish_cg(span, result, a, n, solve_timer.seconds());
  }

  double rr = 0.0;
  for (double v : r) rr += v * v;
  double res_norm = std::sqrt(rr);
  if (res_norm <= opts.tol * b_norm) {
    result.status = SolveStatus::kConverged;
    result.relative_residual = res_norm / b_norm;
    return finish_cg(span, result, a, n, solve_timer.seconds());
  }

  p.assign(r.begin(), r.end());
  for (std::size_t it = 0; it < opts.max_iters; ++it) {
    a.apply(p, q);
    double pq = 0.0;
    for (std::size_t i = 0; i < n; ++i) pq += p[i] * q[i];
    if (!(pq > 0.0)) {
      // Loss of positive definiteness or a non-finite direction (the
      // negated comparison also catches NaN); bail out with the
      // current iterate.
      result.status = SolveStatus::kBreakdown;
      OBS_COUNTER_ADD("cg.breakdowns", 1);
      OBS_INSTANT("cg.breakdown");
      break;
    }
    const double alpha = rr / pq;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
    }
    double rr_new = 0.0;
    for (double v : r) rr_new += v * v;
    result.iterations = it + 1;
    res_norm = std::sqrt(rr_new);
    if (!std::isfinite(res_norm)) {
      result.status = SolveStatus::kBreakdown;
      OBS_COUNTER_ADD("cg.breakdowns", 1);
      OBS_INSTANT("cg.breakdown");
      break;
    }
    OBS_HISTOGRAM_OBSERVE("cg.iter_relative_residual", res_norm / b_norm,
                          obs::exponential_buckets(1e-8, 10.0, 10));
    if (res_norm <= opts.tol * b_norm) {
      result.status = SolveStatus::kConverged;
      break;
    }
    const double beta = rr_new / rr;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    rr = rr_new;
  }
  result.relative_residual = res_norm / b_norm;
  return finish_cg(span, result, a, n, solve_timer.seconds());
}

CgResult preconditioned_conjugate_gradient(const LinearOperator& a,
                                           const Preconditioner& precond,
                                           std::span<const double> b,
                                           std::span<double> x,
                                           const CgOptions& opts) {
  const std::size_t n = a.size();
  if (b.size() != n || x.size() != n || precond.size() != n) {
    throw std::invalid_argument("pcg: size mismatch");
  }
  OBS_SPAN_VAR(span, "pcg.solve");
  const util::WallTimer solve_timer;

  std::vector<double> r(n), z(n), p(n), q(n);

  a.apply(x, r);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - r[i];

  const double b_norm = util::norm2(b);
  CgResult result;
  if (b_norm == 0.0) {
    std::fill(x.begin(), x.end(), 0.0);
    result.status = SolveStatus::kConverged;
    return finish_cg(span, result, a, n, solve_timer.seconds());
  }

  double res_norm = util::norm2(r);
  if (res_norm <= opts.tol * b_norm) {
    result.status = SolveStatus::kConverged;
    result.relative_residual = res_norm / b_norm;
    return finish_cg(span, result, a, n, solve_timer.seconds());
  }

  precond.apply(r, z);
  p.assign(z.begin(), z.end());
  double rz = 0.0;
  for (std::size_t i = 0; i < n; ++i) rz += r[i] * z[i];

  for (std::size_t it = 0; it < opts.max_iters; ++it) {
    a.apply(p, q);
    double pq = 0.0;
    for (std::size_t i = 0; i < n; ++i) pq += p[i] * q[i];
    if (!(pq > 0.0)) {
      result.status = SolveStatus::kBreakdown;
      OBS_COUNTER_ADD("cg.breakdowns", 1);
      OBS_INSTANT("cg.breakdown");
      break;
    }
    const double alpha = rz / pq;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * q[i];
    }
    result.iterations = it + 1;
    res_norm = util::norm2(r);
    if (!std::isfinite(res_norm)) {
      result.status = SolveStatus::kBreakdown;
      OBS_COUNTER_ADD("cg.breakdowns", 1);
      OBS_INSTANT("cg.breakdown");
      break;
    }
    OBS_HISTOGRAM_OBSERVE("cg.iter_relative_residual", res_norm / b_norm,
                          obs::exponential_buckets(1e-8, 10.0, 10));
    if (res_norm <= opts.tol * b_norm) {
      result.status = SolveStatus::kConverged;
      break;
    }
    precond.apply(r, z);
    double rz_new = 0.0;
    for (std::size_t i = 0; i < n; ++i) rz_new += r[i] * z[i];
    const double beta = rz_new / rz;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    rz = rz_new;
  }
  result.relative_residual = res_norm / b_norm;
  return finish_cg(span, result, a, n, solve_timer.seconds());
}

}  // namespace mrhs::solver
