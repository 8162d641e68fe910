#include "solver/chebyshev.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/contracts.hpp"
#include "util/timer.hpp"

namespace mrhs::solver {

ChebyshevSqrt::ChebyshevSqrt(EigBounds bounds, const ChebyshevOptions& opts)
    : ChebyshevSqrt(bounds, opts.order) {
  if (!opts.adaptive) return;
  // Grow the degree until the interval error (relative to the sqrt
  // scale of the interval) meets the tolerance or the order budget is
  // exhausted. Each retry rebuilds the coefficients from scratch; the
  // construction cost is O(order^2) scalar work, negligible next to
  // the operator applications the polynomial will drive.
  const double target = opts.tol * std::sqrt(bounds.lambda_max);
  std::size_t degree = opts.order;
  while (max_interval_error(512) > target && degree < opts.max_iters) {
    degree = std::min(opts.max_iters, degree + (degree + 1) / 2);
    *this = ChebyshevSqrt(bounds, degree);
  }
}

ChebyshevSqrt::ChebyshevSqrt(EigBounds bounds, std::size_t order)
    : bounds_(bounds), coeffs_(order + 1, 0.0) {
  if (bounds_.lambda_min <= 0.0 || bounds_.lambda_max <= bounds_.lambda_min) {
    throw std::invalid_argument("ChebyshevSqrt: bad spectral interval");
  }
  // Chebyshev–Gauss interpolation of f(t) = sqrt(t) mapped to [-1, 1]:
  //   c_j = (2/K) sum_k f(t(cos(theta_k))) cos(j theta_k),
  // with theta_k = pi (k + 1/2) / K at K = order + 1 nodes.
  const std::size_t K = order + 1;
  const double half_width = 0.5 * (bounds_.lambda_max - bounds_.lambda_min);
  const double center = 0.5 * (bounds_.lambda_max + bounds_.lambda_min);
  for (std::size_t j = 0; j <= order; ++j) {
    double sum = 0.0;
    for (std::size_t k = 0; k < K; ++k) {
      const double theta = std::numbers::pi *
                           (static_cast<double>(k) + 0.5) /
                           static_cast<double>(K);
      const double t = center + half_width * std::cos(theta);
      sum += std::sqrt(t) * std::cos(static_cast<double>(j) * theta);
    }
    coeffs_[j] = 2.0 * sum / static_cast<double>(K);
  }
  MRHS_ASSERT_ALL_FINITE(coeffs_.data(), coeffs_.size());
}

double ChebyshevSqrt::evaluate_scalar(double t) const {
  const double half_width = 0.5 * (bounds_.lambda_max - bounds_.lambda_min);
  const double center = 0.5 * (bounds_.lambda_max + bounds_.lambda_min);
  const double x = (t - center) / half_width;
  // Clenshaw recurrence.
  double b1 = 0.0, b2 = 0.0;
  for (std::size_t j = coeffs_.size(); j-- > 1;) {
    const double b0 = coeffs_[j] + 2.0 * x * b1 - b2;
    b2 = b1;
    b1 = b0;
  }
  return 0.5 * coeffs_[0] + x * b1 - b2;
}

double ChebyshevSqrt::max_interval_error(std::size_t samples) const {
  double worst = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const double t = bounds_.lambda_min +
                     (bounds_.lambda_max - bounds_.lambda_min) *
                         static_cast<double>(s) /
                         static_cast<double>(samples - 1);
    worst = std::max(worst, std::abs(evaluate_scalar(t) - std::sqrt(t)));
  }
  return worst;
}

void ChebyshevSqrt::apply(const LinearOperator& a, std::span<const double> z,
                          std::span<double> y) const {
  const std::size_t n = a.size();
  if (z.size() != n || y.size() != n) {
    throw std::invalid_argument("ChebyshevSqrt::apply: size mismatch");
  }
  MRHS_ASSERT_ALL_FINITE(z.data(), z.size());
  OBS_SPAN_VAR(span, "chebyshev.apply");
  span.arg("order", static_cast<double>(coeffs_.size() - 1));
  OBS_COUNTER_ADD("chebyshev.applies", 1);
  const util::WallTimer apply_timer;
  const double half_width = 0.5 * (bounds_.lambda_max - bounds_.lambda_min);
  const double center = 0.5 * (bounds_.lambda_max + bounds_.lambda_min);
  const double scale = 1.0 / half_width;
  const double shift = center / half_width;

  // Three-term recurrence on T_k(M) z with M = (A - center I)/half_width:
  //   t0 = z; t1 = M z; t_{k+1} = 2 M t_k - t_{k-1}.
  std::vector<double> t0(z.begin(), z.end());
  std::vector<double> t1(n), t2(n), az(n);

  for (std::size_t i = 0; i < n; ++i) y[i] = 0.5 * coeffs_[0] * t0[i];
  if (coeffs_.size() == 1) return;

  a.apply(t0, az);
  for (std::size_t i = 0; i < n; ++i) t1[i] = scale * az[i] - shift * t0[i];
  for (std::size_t i = 0; i < n; ++i) y[i] += coeffs_[1] * t1[i];

  for (std::size_t k = 2; k < coeffs_.size(); ++k) {
    a.apply(t1, az);
    for (std::size_t i = 0; i < n; ++i) {
      t2[i] = 2.0 * (scale * az[i] - shift * t1[i]) - t0[i];
    }
    for (std::size_t i = 0; i < n; ++i) y[i] += coeffs_[k] * t2[i];
    std::swap(t0, t1);
    std::swap(t1, t2);
  }
  if (obs::metrics_enabled()) {
    // Roofline accumulators for obs::PerfLedger: one operator apply
    // per degree step, plus ~6n flops / ~7n doubles of recurrence and
    // accumulation algebra per step (estimate).
    const double order = static_cast<double>(coeffs_.size() - 1);
    const double nd = static_cast<double>(n);
    OBS_COUNTER_ADD("chebyshev.bytes",
                    order * a.apply_bytes(1) + (7.0 * order + 5.0) * nd * 8.0);
    OBS_COUNTER_ADD("chebyshev.flops",
                    order * a.apply_flops(1) + (6.0 * order + 2.0) * nd);
    OBS_COUNTER_ADD("chebyshev.seconds", apply_timer.seconds());
  }
}

void ChebyshevSqrt::apply_block(const LinearOperator& a,
                                const sparse::MultiVector& z,
                                sparse::MultiVector& y) const {
  const std::size_t n = a.size();
  const std::size_t m = z.cols();
  if (z.rows() != n || y.rows() != n || y.cols() != m) {
    throw std::invalid_argument("ChebyshevSqrt::apply_block: shape mismatch");
  }
  MRHS_ASSERT_ALL_FINITE(z.data(), n * m);
  OBS_SPAN_VAR(span, "chebyshev.apply_block");
  span.arg("order", static_cast<double>(coeffs_.size() - 1));
  span.arg("m", static_cast<double>(m));
  OBS_COUNTER_ADD("chebyshev.block_applies", 1);
  const util::WallTimer apply_timer;
  const double half_width = 0.5 * (bounds_.lambda_max - bounds_.lambda_min);
  const double center = 0.5 * (bounds_.lambda_max + bounds_.lambda_min);
  const double scale = 1.0 / half_width;
  const double shift = center / half_width;

  sparse::MultiVector t0 = z;
  sparse::MultiVector t1(n, m), az(n, m);
  // One pass per degree term over the row blocks of
  // sparse::for_each_row_block, threaded like the multi-RHS CG's
  // passes: t_next = 0 + c_az * az + c_cur * t_cur (- t_prev), then
  // y += c_y * t_next. Each element takes the operations of the
  // set_zero + axpy chain this pass replaced, in the same order, so
  // the bits are that chain's at any thread count. t_next overwrites
  // az in place, whose rows sit with the core whose GSPMV computed
  // them; a separate buffer would hold rows that every core read two
  // applies ago, which a write must first invalidate.
  const int threads = sparse::pass_threads(n, m, a.threads());
  auto term = [&](double c_az, double c_cur, double c_y,
                  const sparse::MultiVector& cur,
                  const sparse::MultiVector* prev) {
    sparse::for_each_row_block(
        n, threads, [&](std::size_t first, std::size_t last, std::size_t) {
          double* azp = az.data();
          const double* cp = cur.data();
          const double* pp = prev != nullptr ? prev->data() : nullptr;
          double* yp = y.data();
#pragma omp simd
          for (std::size_t e = first * m; e < last * m; ++e) {
            double v = 0.0;
            v += c_az * azp[e];
            v += c_cur * cp[e];
            if (pp != nullptr) v += -1.0 * pp[e];
            azp[e] = v;
            yp[e] += c_y * v;
          }
        });
  };

  y.set_zero();
  y.axpy(0.5 * coeffs_[0], t0);
  if (coeffs_.size() == 1) return;

  a.apply_block(t0, az);
  // t1 = scale az - shift t0.
  term(scale, -shift, coeffs_[1], t0, nullptr);
  std::swap(t1, az);

  for (std::size_t k = 2; k < coeffs_.size(); ++k) {
    a.apply_block(t1, az);
    // t2 = 2 (scale az - shift t1) - t0, left in az; then
    // (t0, t1, az) <- (t1, t2, t0).
    term(2.0 * scale, -2.0 * shift, coeffs_[k], t1, &t0);
    std::swap(t0, t1);
    std::swap(t1, az);
  }
  if (obs::metrics_enabled()) {
    // Past the operator's own traffic model per block apply: each
    // degree term reads az, t_k, t_{k-1} and y and writes t_{k+1} and
    // y (6nm doubles, 8nm flops; 5nm doubles at k = 1); the copy of Z
    // and the first term move 6nm more.
    const double order = static_cast<double>(coeffs_.size() - 1);
    const double nm = static_cast<double>(n) * static_cast<double>(m);
    OBS_COUNTER_ADD("chebyshev.bytes",
                    order * a.apply_bytes(m) + (6.0 * order + 5.0) * nm * 8.0);
    OBS_COUNTER_ADD("chebyshev.flops",
                    order * a.apply_flops(m) + 8.0 * order * nm);
    OBS_COUNTER_ADD("chebyshev.seconds", apply_timer.seconds());
  }
}

}  // namespace mrhs::solver
