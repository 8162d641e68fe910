// Tests for the Chebyshev matrix-square-root approximation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "dense/matrix.hpp"
#include "solver/chebyshev.hpp"
#include "solver/lanczos.hpp"
#include "solver/operator.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/multivector.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace mrhs;

TEST(Chebyshev, ScalarInterpolantAccurate) {
  const solver::EigBounds bounds{0.5, 10.0};
  const solver::ChebyshevSqrt cheb(bounds, 30);
  EXPECT_EQ(cheb.order(), 30u);
  EXPECT_LT(cheb.max_interval_error(), 1e-7);
  // Spot checks.
  for (double t : {0.5, 1.0, 2.0, 5.0, 9.99}) {
    EXPECT_NEAR(cheb.evaluate_scalar(t), std::sqrt(t), 1e-7);
  }
}

TEST(Chebyshev, ErrorDecreasesWithOrder) {
  const solver::EigBounds bounds{0.1, 20.0};
  double prev = 1e300;
  for (std::size_t order : {5u, 10u, 20u, 40u}) {
    const solver::ChebyshevSqrt cheb(bounds, order);
    const double err = cheb.max_interval_error();
    EXPECT_LT(err, prev);
    prev = err;
  }
}

TEST(Chebyshev, HardIntervalNeedsHigherOrder) {
  // Larger condition number -> slower Chebyshev convergence for sqrt.
  const solver::ChebyshevSqrt easy({1.0, 4.0}, 15);
  const solver::ChebyshevSqrt hard({0.01, 4.0}, 15);
  EXPECT_LT(easy.max_interval_error(), hard.max_interval_error());
}

TEST(Chebyshev, BadIntervalThrows) {
  EXPECT_THROW(solver::ChebyshevSqrt({0.0, 1.0}, 10), std::invalid_argument);
  EXPECT_THROW(solver::ChebyshevSqrt({2.0, 1.0}, 10), std::invalid_argument);
}

TEST(Chebyshev, ApplyMatchesDenseSqrt) {
  const auto a = sparse::make_random_bcrs(20, 5.0, 71);
  solver::BcrsOperator op(a, 1);
  const auto bounds = solver::lanczos_bounds(op);
  const solver::ChebyshevSqrt cheb(bounds, 40);

  util::StreamRng rng(12);
  std::vector<double> z(op.size()), y(op.size()), y_ref(op.size());
  rng.fill_normal(z);
  cheb.apply(op, z, y);
  dense::sqrt_apply_reference(a.to_dense(), z, y_ref);
  EXPECT_LT(util::diff_norm2(y, y_ref) / util::norm2(y_ref), 1e-6);
}

TEST(Chebyshev, BlockApplyMatchesColumnwiseApply) {
  const auto a = sparse::make_random_bcrs(30, 6.0, 73);
  solver::BcrsOperator op(a, 1);
  const auto bounds = solver::lanczos_bounds(op);
  const solver::ChebyshevSqrt cheb(bounds, 30);

  const std::size_t m = 7;
  util::StreamRng rng(13);
  sparse::MultiVector z(op.size(), m), y(op.size(), m);
  z.fill_normal(rng);
  cheb.apply_block(op, z, y);

  std::vector<double> zj(op.size()), yj(op.size()), yblk(op.size());
  for (std::size_t j = 0; j < m; ++j) {
    z.copy_col_out(j, zj);
    cheb.apply(op, zj, yj);
    y.copy_col_out(j, yblk);
    EXPECT_LT(util::diff_norm2(yj, yblk), 1e-10 * (1.0 + util::norm2(yj)));
  }
}

TEST(Chebyshev, BlockApplyMatchesUnfusedChain) {
  // apply_block runs each degree term as one fused pass, threaded over
  // row blocks above sparse::kThreadedPassMinEntries. Its bits must
  // stay those of the plain set_zero + axpy chain below, at any thread
  // count.
  const auto a = sparse::make_random_bcrs(200, 6.0, 89);
  const std::size_t m = 16;
  ASSERT_GE(a.rows() * m, sparse::kThreadedPassMinEntries);
  solver::BcrsOperator serial_op(a, 1);
  const solver::ChebyshevSqrt cheb(solver::lanczos_bounds(serial_op), 30);

  util::StreamRng rng(15);
  sparse::MultiVector z(a.rows(), m);
  z.fill_normal(rng);

  const auto c = cheb.coefficients();
  const double half_width =
      0.5 * (cheb.bounds().lambda_max - cheb.bounds().lambda_min);
  const double center =
      0.5 * (cheb.bounds().lambda_max + cheb.bounds().lambda_min);
  const double scale = 1.0 / half_width;
  const double shift = center / half_width;
  sparse::MultiVector t0 = z, t1(a.rows(), m), t2(a.rows(), m),
                      az(a.rows(), m), ref(a.rows(), m);
  ref.set_zero();
  ref.axpy(0.5 * c[0], t0);
  serial_op.apply_block(t0, az);
  t1.set_zero();
  t1.axpy(scale, az);
  t1.axpy(-shift, t0);
  ref.axpy(c[1], t1);
  for (std::size_t k = 2; k < c.size(); ++k) {
    serial_op.apply_block(t1, az);
    t2.set_zero();
    t2.axpy(2.0 * scale, az);
    t2.axpy(-2.0 * shift, t1);
    t2.axpy(-1.0, t0);
    ref.axpy(c[k], t2);
    std::swap(t0, t1);
    std::swap(t1, t2);
  }

  for (const int threads : {1, 4}) {
    solver::BcrsOperator op(a, threads);
    sparse::MultiVector y(a.rows(), m);
    cheb.apply_block(op, z, y);
    EXPECT_EQ(std::memcmp(y.data(), ref.data(), a.rows() * m * sizeof(double)),
              0)
        << threads << " threads";
  }
}

TEST(Chebyshev, OperatorApplicationCountIsOrderTimesVectors) {
  const auto a = sparse::make_random_bcrs(15, 4.0, 79);
  solver::BcrsOperator op(a, 1);
  const solver::ChebyshevSqrt cheb({1.0, 50.0}, 30);
  std::vector<double> z(op.size(), 1.0), y(op.size());
  op.reset_application_count();
  cheb.apply(op, z, y);
  EXPECT_EQ(op.applications(), 30);

  sparse::MultiVector zb(op.size(), 4), yb(op.size(), 4);
  op.reset_application_count();
  cheb.apply_block(op, zb, yb);
  EXPECT_EQ(op.applications(), 30 * 4);
}

TEST(Chebyshev, SquaredApplicationRecoversMatrix) {
  // S(A) S(A) z should equal A z when S approximates sqrt well.
  const auto a = sparse::make_random_bcrs(25, 5.0, 83);
  solver::BcrsOperator op(a, 1);
  const auto bounds = solver::lanczos_bounds(op);
  const solver::ChebyshevSqrt cheb(bounds, 40);

  util::StreamRng rng(14);
  std::vector<double> z(op.size()), s1(op.size()), s2(op.size()),
      az(op.size());
  rng.fill_normal(z);
  cheb.apply(op, z, s1);
  cheb.apply(op, s1, s2);
  op.apply(z, az);
  EXPECT_LT(util::diff_norm2(s2, az) / util::norm2(az), 1e-6);
}

TEST(Chebyshev, BrownianCovarianceMatchesR) {
  // Statistical fluctuation-dissipation check: cov(S z) ~ R for
  // z ~ N(0, I). Uses a small matrix and many samples.
  const auto a = sparse::make_random_bcrs(4, 2.0, 89);
  solver::BcrsOperator op(a, 1);
  const auto bounds = solver::lanczos_bounds(op);
  const solver::ChebyshevSqrt cheb(bounds, 30);
  const std::size_t n = op.size();
  const std::size_t samples = 20000;

  dense::Matrix cov(n, n);
  util::StreamRng rng(15);
  std::vector<double> z(n), y(n);
  for (std::size_t s = 0; s < samples; ++s) {
    rng.fill_normal(z);
    cheb.apply(op, z, y);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) cov(i, j) += y[i] * y[j];
    }
  }
  const auto d = a.to_dense();
  double scale = 0.0;
  for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, d(i, i));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cov(i, j) /= static_cast<double>(samples);
      EXPECT_NEAR(cov(i, j), d(i, j), 0.05 * scale);
    }
  }
}

}  // namespace
