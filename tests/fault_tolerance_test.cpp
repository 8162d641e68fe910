// The multi-RHS solve's column contract and its fault containment:
// a column's bits do not depend on the block's width or its
// neighbours, a breakdown or an injected NaN stays in its own column,
// and the stepper survives a failed augmented solve by falling back to
// zero guesses, with the obs metrics recording it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "obs/obs.hpp"
#include "solver/block_cg.hpp"
#include "solver/fault_tolerance.hpp"
#include "solver/operator.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/multivector.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;

/// Fresh, enabled metrics registry per test so counter assertions see
/// only this test's events (the injector and the stepper's fallback).
class LadderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().enable();
  }
  void TearDown() override { obs::MetricsRegistry::instance().disable(); }

  static double counter(const std::string& name) {
    const auto snap = obs::MetricsRegistry::instance().snapshot();
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : it->second;
  }
};

struct Problem {
  sparse::BcrsMatrix a;
  sparse::MultiVector b;
  sparse::MultiVector x;
};

Problem make_problem(std::size_t block_rows = 40, std::size_t m = 3,
                     double blocks_per_row = 8.0, std::uint64_t seed = 17) {
  Problem p{sparse::make_random_bcrs(block_rows, blocks_per_row, seed),
            sparse::MultiVector(3 * block_rows, m),
            sparse::MultiVector(3 * block_rows, m)};
  util::StreamRng rng(seed + 1);
  p.b.fill_normal(rng);
  return p;
}

std::vector<double> true_residuals(const solver::LinearOperator& a,
                                   const sparse::MultiVector& b,
                                   const sparse::MultiVector& x) {
  sparse::MultiVector r(b.rows(), b.cols());
  a.apply_block(x, r);
  sparse::axpby(1.0, b, -1.0, r);
  std::vector<double> norms(b.cols()), b_norms(b.cols());
  r.col_norms(norms);
  b.col_norms(b_norms);
  for (std::size_t j = 0; j < norms.size(); ++j) norms[j] /= b_norms[j];
  return norms;
}

// --- the fault injector itself -----------------------------------------

TEST_F(LadderTest, FaultInjectorPoisonsOnlyScheduledBlockApplies) {
  auto p = make_problem();
  solver::BcrsOperator op(p.a, 1);
  solver::FaultInjection plan;
  plan.mode = solver::FaultInjection::Mode::kNan;
  plan.clean_applications = 1;
  plan.faulty_applications = 1;
  solver::FaultInjectingOperator faulty(op, plan);

  sparse::MultiVector y(p.b.rows(), p.b.cols());
  faulty.apply_block(p.b, y);  // call 0: clean
  for (std::size_t i = 0; i < y.rows() * y.cols(); ++i) {
    ASSERT_TRUE(std::isfinite(y.data()[i]));
  }
  faulty.apply_block(p.b, y);  // call 1: poisoned
  bool saw_nan = false;
  for (std::size_t i = 0; i < y.rows() * y.cols(); ++i) {
    if (std::isnan(y.data()[i])) saw_nan = true;
  }
  EXPECT_TRUE(saw_nan);
  EXPECT_EQ(faulty.injected(), 1);
  faulty.apply_block(p.b, y);  // call 2: clean again
  EXPECT_EQ(faulty.injected(), 1);

  // block_only leaves single-vector applies untouched.
  std::vector<double> xv(faulty.size(), 1.0), yv(faulty.size());
  faulty.apply(xv, yv);
  for (double v : yv) ASSERT_TRUE(std::isfinite(v));
  EXPECT_EQ(counter("fault_injection.injected"), 1.0);
}

// --- the column contract -----------------------------------------------

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Column `j` of `x` and its residual record equal column `k` of the
/// reference solve, bit for bit.
void expect_same_column(const sparse::MultiVector& x,
                        const solver::BlockCgResult& res, std::size_t j,
                        const sparse::MultiVector& ref_x,
                        const solver::BlockCgResult& ref, std::size_t k) {
  ASSERT_TRUE(same_bits(res.relative_residuals[j], ref.relative_residuals[k]))
      << "column " << k;
  for (std::size_t i = 0; i < x.rows(); ++i) {
    ASSERT_TRUE(same_bits(x(i, j), ref_x(i, k)))
        << "column " << k << " row " << i;
  }
}

TEST(ColumnContract, ColumnBitsDoNotDependOnWidth) {
  // Solve 16 systems at width 16, then again in blocks of awkward
  // widths, each column at a new position among new neighbours and
  // from the same initial guess. The columns converge at different
  // iterations, so frozen columns ride along for different counts.
  auto p = make_problem(40, 16, 8.0, 23);
  solver::BcrsOperator op(p.a, 1);
  util::StreamRng rng(24);
  p.x.fill_normal(rng);
  p.x.scale(1e-3);
  const sparse::MultiVector x0 = p.x;
  const auto ref = solver::block_conjugate_gradient(op, p.b, p.x);
  ASSERT_TRUE(ref.converged());

  for (const std::size_t width : {2u, 3u, 5u, 8u, 13u}) {
    for (std::size_t first = 0; first < 16; first += width) {
      // Columns first, first+1, ... (mod 16), in reverse order.
      sparse::MultiVector b(p.b.rows(), width), x(p.b.rows(), width);
      for (std::size_t j = 0; j < width; ++j) {
        const std::size_t k = (first + width - 1 - j) % 16;
        for (std::size_t i = 0; i < b.rows(); ++i) {
          b(i, j) = p.b(i, k);
          x(i, j) = x0(i, k);
        }
      }
      const auto res = solver::block_conjugate_gradient(op, b, x);
      ASSERT_TRUE(res.converged());
      EXPECT_LE(res.iterations, ref.iterations);
      for (std::size_t j = 0; j < width; ++j) {
        expect_same_column(x, res, j, p.x, ref,
                           (first + width - 1 - j) % 16);
      }
    }
  }
}

TEST(ColumnContract, ColumnBitsDoNotDependOnThreads) {
  // 600 rows make 5 reduction blocks, and 600 x 16 entries reach the
  // threaded passes; the operator's thread count then sets how many
  // workers share the blocks. Every count must give the same bits.
  const std::size_t m = 16;
  auto p = make_problem(200, m, 8.0, 37);
  ASSERT_GE(sparse::reduce_blocks(p.b.rows()), 4u);
  ASSERT_GE(p.b.rows() * m, sparse::kThreadedPassMinEntries);
  util::StreamRng rng(38);
  p.x.fill_normal(rng);
  p.x.scale(1e-3);
  const sparse::MultiVector x0 = p.x;

  solver::BcrsOperator serial_op(p.a, 1);
  const auto ref = solver::block_conjugate_gradient(serial_op, p.b, p.x);
  ASSERT_TRUE(ref.converged());
  for (const int threads : {2, 3, 4}) {
    solver::BcrsOperator op(p.a, threads);
    ASSERT_EQ(sparse::pass_threads(p.b.rows(), m, op.threads()), threads);
    sparse::MultiVector x = x0;
    const auto res = solver::block_conjugate_gradient(op, p.b, x);
    ASSERT_TRUE(res.converged());
    EXPECT_EQ(res.iterations, ref.iterations) << threads << " threads";
    for (std::size_t j = 0; j < m; ++j) {
      expect_same_column(x, res, j, p.x, ref, j);
    }
  }

  // Three of the columns alone, at a width that stays below the
  // threshold and so runs the same blocks serially, on a 4-thread
  // operator: the same bits as inside the threaded width-16 solve.
  const std::size_t narrow = 3;
  ASSERT_LT(p.b.rows() * narrow, sparse::kThreadedPassMinEntries);
  solver::BcrsOperator op(p.a, 4);
  sparse::MultiVector b(p.b.rows(), narrow), x(p.b.rows(), narrow);
  const std::size_t picks[narrow] = {11, 0, 6};
  for (std::size_t j = 0; j < narrow; ++j) {
    for (std::size_t i = 0; i < b.rows(); ++i) {
      b(i, j) = p.b(i, picks[j]);
      x(i, j) = x0(i, picks[j]);
    }
  }
  const auto res = solver::block_conjugate_gradient(op, b, x);
  ASSERT_TRUE(res.converged());
  for (std::size_t j = 0; j < narrow; ++j) {
    expect_same_column(x, res, j, p.x, ref, picks[j]);
  }
}

TEST(ColumnContract, NanStaysInItsColumn) {
  const std::size_t m = 4;
  auto clean_p = make_problem(40, m);
  solver::BcrsOperator op(clean_p.a, 1);
  const auto clean = solver::block_conjugate_gradient(op, clean_p.b,
                                                      clean_p.x);
  ASSERT_TRUE(clean.converged());

  // Poison one entry of Q = A P in the third iteration (the fourth
  // block apply, after the initial residual).
  auto p = make_problem(40, m);
  solver::FaultInjection plan;
  plan.mode = solver::FaultInjection::Mode::kNan;
  plan.clean_applications = 3;
  plan.faulty_applications = 1;
  solver::FaultInjectingOperator faulty(op, plan);
  const auto res = solver::block_conjugate_gradient(faulty, p.b, p.x);
  ASSERT_EQ(faulty.injected(), 1);
  EXPECT_EQ(res.status, solver::SolveStatus::kBreakdown);
  EXPECT_EQ(res.iterations, clean.iterations);

  const std::size_t hit = (p.x.rows() * m / 2) % m;
  for (std::size_t j = 0; j < m; ++j) {
    if (j != hit) {
      expect_same_column(p.x, res, j, clean_p.x, clean, j);
    }
  }
  // The poisoned column stopped with the iterate of its second step.
  auto two_p = make_problem(40, m);
  solver::BlockCgOptions two_steps;
  two_steps.max_iters = 2;
  const auto two = solver::block_conjugate_gradient(op, two_p.b, two_p.x,
                                                    two_steps);
  expect_same_column(p.x, res, hit, two_p.x, two, hit);
}

TEST(ColumnContract, BreakdownKeepsLastFiniteIterate) {
  // A NaN in the initial residual stops its column before any step:
  // that column hands back its initial guess; the others converge.
  const std::size_t m = 3;
  auto p = make_problem(40, m);
  util::StreamRng rng(5);
  p.x.fill_normal(rng);
  const sparse::MultiVector x0 = p.x;
  solver::BcrsOperator op(p.a, 1);
  solver::FaultInjection plan;
  plan.mode = solver::FaultInjection::Mode::kNan;
  plan.faulty_applications = -1;  // every block apply, same entry
  solver::FaultInjectingOperator faulty(op, plan);
  const auto res = solver::block_conjugate_gradient(faulty, p.b, p.x);
  EXPECT_EQ(res.status, solver::SolveStatus::kBreakdown);
  EXPECT_FALSE(res.converged());

  const std::size_t hit = (p.x.rows() * m / 2) % m;
  EXPECT_TRUE(std::isnan(res.relative_residuals[hit]));
  const auto residuals = true_residuals(op, p.b, p.x);
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t i = 0; i < p.x.rows(); ++i) {
      ASSERT_TRUE(std::isfinite(p.x(i, j)));
      if (j == hit) {
        ASSERT_TRUE(same_bits(p.x(i, j), x0(i, j)));
      }
    }
    if (j != hit) {
      EXPECT_LE(residuals[j], 1e-6 * 1.01);
    }
  }
}

TEST(ColumnContract, SweepsCountTheSlowestColumn) {
  // One GSPMV per sweep, until the slowest column converges; a column
  // that converges earlier freezes.
  const std::size_t m = 3;
  auto p = make_problem(40, m);
  const std::size_t n = p.b.rows();
  solver::BcrsOperator op(p.a, 1);
  // Column 1 starts at its exact solution, so it converges at sweep 0.
  sparse::MultiVector x_exact(n, m), b_exact(n, m);
  util::StreamRng rng(6);
  x_exact.fill_normal(rng);
  op.apply_block(x_exact, b_exact);
  for (std::size_t i = 0; i < n; ++i) {
    p.b(i, 1) = b_exact(i, 1);
    p.x(i, 1) = x_exact(i, 1);
  }
  op.reset_application_count();
  const auto res = solver::block_conjugate_gradient(op, p.b, p.x);
  ASSERT_TRUE(res.converged());
  EXPECT_EQ(res.status, solver::SolveStatus::kConverged);
  EXPECT_EQ(op.applications(), static_cast<long>((res.iterations + 1) * m));
  EXPECT_EQ(res.relative_residuals[1], 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(same_bits(p.x(i, 1), x_exact(i, 1)));
  }
  for (double r : true_residuals(op, p.b, p.x)) EXPECT_LE(r, 1e-6 * 1.01);

  // Each other column beside the frozen one alone: the slowest of
  // them needs exactly the sweeps of the whole block.
  std::size_t slowest = 0;
  for (const std::size_t j : {0u, 2u}) {
    sparse::MultiVector b(n, 2), x(n, 2);
    for (std::size_t i = 0; i < n; ++i) {
      b(i, 0) = p.b(i, j);
      b(i, 1) = p.b(i, 1);
      x(i, 1) = x_exact(i, 1);
    }
    const auto alone = solver::block_conjugate_gradient(op, b, x);
    ASSERT_TRUE(alone.converged());
    slowest = std::max(slowest, alone.iterations);
  }
  EXPECT_EQ(res.iterations, slowest);
}

TEST(ColumnContract, StagnationReportsMaxIters) {
  // A tolerance below the roundoff floor is unattainable: every column
  // runs the whole budget and the solve reports kMaxIters with a
  // finite iterate.
  auto p = make_problem(60, 3, 6.0, 29);
  solver::BcrsOperator op(p.a, 1);
  solver::BlockCgOptions opts;
  opts.tol = 1e-30;
  opts.max_iters = 25;
  const auto res = solver::block_conjugate_gradient(op, p.b, p.x, opts);
  EXPECT_EQ(res.status, solver::SolveStatus::kMaxIters);
  EXPECT_EQ(res.iterations, 25u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_TRUE(std::isfinite(res.relative_residuals[j]));
    EXPECT_GT(res.relative_residuals[j], 1e-30);
  }
}

TEST_F(LadderTest, PerturbationModeIsDeterministic) {
  auto p = make_problem();
  solver::BcrsOperator op(p.a, 1);
  solver::FaultInjection plan;
  plan.mode = solver::FaultInjection::Mode::kPerturb;
  plan.clean_applications = 0;
  plan.faulty_applications = 1;
  plan.perturb_scale = 1e-3;
  solver::FaultInjectingOperator f1(op, plan);
  solver::FaultInjectingOperator f2(op, plan);
  sparse::MultiVector y1(p.b.rows(), p.b.cols());
  sparse::MultiVector y2(p.b.rows(), p.b.cols());
  f1.apply_block(p.b, y1);
  f2.apply_block(p.b, y2);
  bool differs_from_clean = false;
  sparse::MultiVector clean(p.b.rows(), p.b.cols());
  op.apply_block(p.b, clean);
  for (std::size_t i = 0; i < y1.rows() * y1.cols(); ++i) {
    ASSERT_EQ(y1.data()[i], y2.data()[i]);  // same plan, same bits
    ASSERT_TRUE(std::isfinite(y1.data()[i]));
    if (y1.data()[i] != clean.data()[i]) differs_from_clean = true;
  }
  EXPECT_TRUE(differs_from_clean);
}

// --- stepper integration -----------------------------------------------

core::SdConfig stepper_config() {
  core::SdConfig config;
  config.particles = 60;
  config.phi = 0.35;
  config.seed = 31;
  config.chebyshev_order = 20;
  return config;
}

TEST_F(LadderTest, StepperSurvivesInjectedBlockBreakdown) {
  const auto config = stepper_config();
  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  solver::FaultInjection plan;
  plan.mode = solver::FaultInjection::Mode::kNan;
  // The chunk prelude spends exactly chebyshev_order block applies on
  // the Brownian forces; the next block apply is the augmented solve's
  // initial residual — poison the one after it (first CG iteration).
  plan.clean_applications = static_cast<long>(config.chebyshev_order) + 1;
  plan.faulty_applications = 1;
  alg.inject_fault_for_testing(plan);

  const auto stats = alg.run(4);
  // The poisoned column breaks down, so the chunk drops its guesses
  // and every step solves to tolerance from a zero guess.
  EXPECT_EQ(stats.solver_status, solver::SolveStatus::kRecovered);
  EXPECT_EQ(stats.guess_fallbacks, 1u);
  EXPECT_EQ(stats.steps.size(), 4u);
  for (const auto& pos : sim.system().positions()) {
    ASSERT_TRUE(std::isfinite(pos.x));
    ASSERT_TRUE(std::isfinite(pos.y));
    ASSERT_TRUE(std::isfinite(pos.z));
  }
  EXPECT_GE(counter("block_cg.breakdowns"), 1.0);
}

TEST_F(LadderTest, StepperCompletesWhenEveryRungFails) {
  const auto config = stepper_config();
  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  solver::FaultInjection plan;
  plan.mode = solver::FaultInjection::Mode::kNan;
  plan.clean_applications = static_cast<long>(config.chebyshev_order);
  plan.faulty_applications = -1;  // sticky
  plan.block_only = false;        // single-vector applies poisoned too
  alg.inject_fault_for_testing(plan);

  const auto stats = alg.run(4);
  // The augmented solve fails, but the trajectory continues from zero
  // guesses on clean per-step operators, and every step solves to
  // tolerance: the run reports a recovery, not a breakdown.
  EXPECT_EQ(stats.solver_status, solver::SolveStatus::kRecovered);
  EXPECT_EQ(stats.guess_fallbacks, 1u);
  EXPECT_EQ(stats.steps.size(), 4u);
  for (const auto& rec : stats.steps) {
    // No step reports the bogus zero-iteration "free" solve of a
    // healthy chunk; every step paid for a real solve.
    EXPECT_GT(rec.iters_first_solve, 0u);
  }
  for (const auto& pos : sim.system().positions()) {
    ASSERT_TRUE(std::isfinite(pos.x));
    ASSERT_TRUE(std::isfinite(pos.y));
    ASSERT_TRUE(std::isfinite(pos.z));
  }
  EXPECT_EQ(counter("block_cg.breakdowns"), 1.0);
}

}  // namespace
