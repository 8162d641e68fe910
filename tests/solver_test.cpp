// Tests for CG, the multi-RHS CG, Lanczos bounds, and iterative
// refinement.
#include <gtest/gtest.h>

#include <vector>

#include "dense/matrix.hpp"
#include "solver/block_cg.hpp"
#include "solver/cg.hpp"
#include "solver/lanczos.hpp"
#include "solver/operator.hpp"
#include "solver/refinement.hpp"
#include "sparse/bcrs.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace mrhs;

double residual_norm(const solver::LinearOperator& a,
                     std::span<const double> b, std::span<const double> x) {
  std::vector<double> r(b.size());
  a.apply(x, r);
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
  return util::norm2(r);
}

TEST(Cg, SolvesSpdSystem) {
  const auto a = sparse::make_random_bcrs(60, 8.0, 3);
  solver::BcrsOperator op(a, 1);
  util::StreamRng rng(1);
  std::vector<double> b(op.size()), x(op.size(), 0.0);
  rng.fill_normal(b);
  const auto result = solver::conjugate_gradient(op, b, x);
  EXPECT_TRUE(result.converged());
  EXPECT_LE(result.relative_residual, 1e-6);
  EXPECT_LE(residual_norm(op, b, x), 1e-6 * util::norm2(b) * 1.01);
}

TEST(Cg, InitialGuessReducesIterations) {
  const auto a = sparse::make_random_bcrs(100, 10.0, 7, true, 0.3);
  solver::BcrsOperator op(a, 1);
  util::StreamRng rng(2);
  std::vector<double> b(op.size()), x0(op.size(), 0.0);
  rng.fill_normal(b);
  auto cold = solver::conjugate_gradient(op, b, x0);
  ASSERT_TRUE(cold.converged());

  // Perturb the solution slightly and resolve.
  std::vector<double> x1 = x0;
  for (double& v : x1) v *= 1.0 + 1e-4;
  const auto warm = solver::conjugate_gradient(op, b, x1);
  EXPECT_TRUE(warm.converged());
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(Cg, ExactGuessConvergesInZeroIterations) {
  const auto a = sparse::make_random_bcrs(30, 5.0, 9);
  solver::BcrsOperator op(a, 1);
  util::StreamRng rng(3);
  std::vector<double> x_true(op.size()), b(op.size());
  rng.fill_normal(x_true);
  op.apply(x_true, b);
  std::vector<double> x = x_true;
  const auto result = solver::conjugate_gradient(op, b, x);
  EXPECT_TRUE(result.converged());
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Cg, ZeroRhsGivesZeroSolution) {
  const auto a = sparse::make_random_bcrs(10, 3.0, 5);
  solver::BcrsOperator op(a, 1);
  std::vector<double> b(op.size(), 0.0), x(op.size(), 1.0);
  const auto result = solver::conjugate_gradient(op, b, x);
  EXPECT_TRUE(result.converged());
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Cg, RespectsMaxIterations) {
  const auto a = sparse::make_random_bcrs(200, 12.0, 13, true, 0.12);
  solver::BcrsOperator op(a, 1);
  util::StreamRng rng(4);
  std::vector<double> b(op.size()), x(op.size(), 0.0);
  rng.fill_normal(b);
  solver::CgOptions opts;
  opts.max_iters = 3;
  const auto result = solver::conjugate_gradient(op, b, x, opts);
  EXPECT_FALSE(result.converged());
  EXPECT_EQ(result.iterations, 3u);
}

TEST(Cg, CountsOperatorApplications) {
  const auto a = sparse::make_random_bcrs(40, 6.0, 21);
  solver::BcrsOperator op(a, 1);
  util::StreamRng rng(5);
  std::vector<double> b(op.size()), x(op.size(), 0.0);
  rng.fill_normal(b);
  op.reset_application_count();
  const auto result = solver::conjugate_gradient(op, b, x);
  // One apply for the initial residual plus one per iteration.
  EXPECT_EQ(op.applications(),
            static_cast<long>(result.iterations) + 1);
}

class BlockCgParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BlockCgParam, MatchesColumnwiseCg) {
  const std::size_t m = GetParam();
  const auto a = sparse::make_random_bcrs(50, 7.0, 31);
  solver::BcrsOperator op(a, 1);
  util::StreamRng rng(m);
  sparse::MultiVector b(op.size(), m), x(op.size(), m);
  b.fill_normal(rng);

  solver::BlockCgOptions opts;
  opts.tol = 1e-8;
  const auto result = solver::block_conjugate_gradient(op, b, x, opts);
  EXPECT_TRUE(result.converged());
  ASSERT_EQ(result.relative_residuals.size(), m);
  for (double r : result.relative_residuals) EXPECT_LE(r, 1e-8);

  // Every column solves its own system.
  std::vector<double> bj(op.size()), xj(op.size());
  for (std::size_t j = 0; j < m; ++j) {
    b.copy_col_out(j, bj);
    x.copy_col_out(j, xj);
    EXPECT_LE(residual_norm(op, bj, xj), 1e-8 * util::norm2(bj) * 1.05);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BlockCgParam,
                         ::testing::Values<std::size_t>(1, 2, 4, 8, 16));

TEST(BlockCg, SingleColumnMatchesCgIterations) {
  const auto a = sparse::make_random_bcrs(80, 9.0, 37);
  solver::BcrsOperator op(a, 1);
  util::StreamRng rng(7);
  std::vector<double> b(op.size()), x(op.size(), 0.0);
  rng.fill_normal(b);
  const auto cg = solver::conjugate_gradient(op, b, x);

  sparse::MultiVector bb(op.size(), 1), xx(op.size(), 1);
  bb.copy_col_in(0, b);
  const auto bcg = solver::block_conjugate_gradient(op, bb, xx);
  EXPECT_TRUE(bcg.converged());
  // Same Krylov process: iteration counts agree to within one.
  EXPECT_NEAR(static_cast<double>(bcg.iterations),
              static_cast<double>(cg.iterations), 1.0);
}

TEST(BlockCg, HandlesDependentRightHandSides) {
  // Duplicate columns: each runs its own recurrence, so the dependence
  // that would make a shared Krylov space singular costs nothing.
  const auto a = sparse::make_random_bcrs(40, 6.0, 43);
  solver::BcrsOperator op(a, 1);
  util::StreamRng rng(9);
  std::vector<double> b0(op.size());
  rng.fill_normal(b0);
  sparse::MultiVector b(op.size(), 3), x(op.size(), 3);
  for (std::size_t j = 0; j < 3; ++j) b.copy_col_in(j, b0);
  const auto result = solver::block_conjugate_gradient(op, b, x);
  EXPECT_TRUE(result.converged());
  std::vector<double> xj(op.size());
  for (std::size_t j = 0; j < 3; ++j) {
    x.copy_col_out(j, xj);
    EXPECT_LE(residual_norm(op, b0, xj), 1e-6 * util::norm2(b0) * 1.05);
  }
}

TEST(BlockCg, InitialGuessRespected) {
  const auto a = sparse::make_random_bcrs(40, 6.0, 47);
  solver::BcrsOperator op(a, 1);
  util::StreamRng rng(10);
  const std::size_t m = 4;
  sparse::MultiVector x_true(op.size(), m), b(op.size(), m);
  x_true.fill_normal(rng);
  op.apply_block(x_true, b);
  sparse::MultiVector x = x_true;  // exact guess
  const auto result = solver::block_conjugate_gradient(op, b, x);
  EXPECT_TRUE(result.converged());
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Lanczos, BoundsContainDenseSpectrum) {
  const auto a = sparse::make_random_bcrs(40, 8.0, 53);
  solver::BcrsOperator op(a, 1);
  const auto bounds = solver::lanczos_bounds(op);
  const auto es = dense::eigen_symmetric(a.to_dense());
  EXPECT_LE(bounds.lambda_min, es.eigenvalues.front() * 1.001);
  EXPECT_GE(bounds.lambda_max, es.eigenvalues.back() * 0.999);
  EXPECT_GT(bounds.lambda_min, 0.0);
  // Ritz + margin should not be wildly loose either.
  EXPECT_GE(bounds.lambda_min, es.eigenvalues.front() * 0.5);
  EXPECT_LE(bounds.lambda_max, es.eigenvalues.back() * 1.5);
}

TEST(Lanczos, DeterministicInSeed) {
  const auto a = sparse::make_random_bcrs(30, 6.0, 59);
  solver::BcrsOperator op(a, 1);
  const auto b1 = solver::lanczos_bounds(op);
  const auto b2 = solver::lanczos_bounds(op);
  EXPECT_DOUBLE_EQ(b1.lambda_min, b2.lambda_min);
  EXPECT_DOUBLE_EQ(b1.lambda_max, b2.lambda_max);
}

TEST(Refinement, ConvergesWithFrozenFactor) {
  // Factor A, then solve a slightly perturbed system A' with the old
  // factor via refinement — the paper's midpoint-solve trick.
  const auto a = sparse::make_random_bcrs(20, 5.0, 61);
  const auto ad = a.to_dense();
  const dense::Cholesky chol(ad);

  auto a2 = a;
  for (double& v : a2.values()) v *= 1.0 + 1e-3;  // perturbed matrix
  solver::BcrsOperator op2(a2, 1);

  util::StreamRng rng(11);
  std::vector<double> b(op2.size()), x(op2.size(), 0.0);
  rng.fill_normal(b);
  const auto result = solver::iterative_refinement(
      op2, b, x, [&](std::span<double> r) { chol.solve_in_place(r); });
  EXPECT_TRUE(result.converged());
  EXPECT_GE(result.iterations, 1u);
  EXPECT_LE(result.iterations, 6u);  // "only a very small number"
  EXPECT_LE(residual_norm(op2, b, x), 1e-6 * util::norm2(b) * 1.01);
}

TEST(Refinement, ZeroRhs) {
  const auto a = sparse::make_random_bcrs(10, 3.0, 67);
  solver::BcrsOperator op(a, 1);
  const dense::Cholesky chol(a.to_dense());
  std::vector<double> b(op.size(), 0.0), x(op.size(), 5.0);
  const auto result = solver::iterative_refinement(
      op, b, x, [&](std::span<double> r) { chol.solve_in_place(r); });
  EXPECT_TRUE(result.converged());
  for (double v : x) EXPECT_DOUBLE_EQ(v, 0.0);
}

}  // namespace
