// Property-based sweeps (parameterized gtest) over the physics and
// kernel layers: invariants that must hold across whole parameter
// ranges rather than at hand-picked points.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>
#include <vector>

#include "dense/matrix.hpp"
#include "sd/assembly_engine.hpp"
#include "sd/cell_list.hpp"
#include "sd/lubrication.hpp"
#include "sd/packing.hpp"
#include "sd/radii.hpp"
#include "sd/resistance.hpp"
#include "solver/chebyshev.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/gspmv.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace mrhs;
using sd::Vec3;

// ---------------------------------------------------------------------------
// Lubrication scalar functions over the radius-ratio range.

class LubricationBetaSweep : public ::testing::TestWithParam<double> {};

TEST_P(LubricationBetaSweep, ScalarsPositiveAndMonotoneInGap) {
  const double beta = GetParam();
  double prev_squeeze = 1e300;
  for (double xi : {1e-4, 1e-3, 1e-2, 5e-2}) {
    const auto s = sd::lubrication_scalars(xi, beta);
    EXPECT_GT(s.squeeze, 0.0) << "beta=" << beta << " xi=" << xi;
    EXPECT_GE(s.shear, 0.0);
    EXPECT_GT(s.squeeze, s.shear);  // squeeze dominates at small gaps
    EXPECT_LT(s.squeeze, prev_squeeze);  // monotone in gap
    prev_squeeze = s.squeeze;
  }
}

TEST_P(LubricationBetaSweep, PairTensorExchangeSymmetric) {
  const double beta = GetParam();
  const double a = 1.0, b = beta;
  const Vec3 u{0.48, -0.6, 0.64};  // unit vector
  sd::LubricationParams params;
  double t1[9], t2[9];
  sd::lubrication_pair_tensor(u, a, b, 0.01, params,
                              std::span<double, 9>(t1));
  const Vec3 nu{-u.x, -u.y, -u.z};
  sd::lubrication_pair_tensor(nu, b, a, 0.01, params,
                              std::span<double, 9>(t2));
  for (int k = 0; k < 9; ++k) {
    EXPECT_NEAR(t1[k], t2[k], 1e-9 * (1.0 + std::abs(t1[k])));
  }
}

INSTANTIATE_TEST_SUITE_P(Betas, LubricationBetaSweep,
                         ::testing::Values(0.2, 0.5, 1.0, 2.0, 5.0),
                         [](const auto& pinfo) {
                           return "beta" + std::to_string(static_cast<int>(
                                               pinfo.param * 10));
                         });

// ---------------------------------------------------------------------------
// Chebyshev accuracy across condition numbers.

class ChebyshevConditionSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChebyshevConditionSweep, OrderThirtyErrorBounded) {
  const double condition = GetParam();
  const solver::EigBounds bounds{1.0, condition};
  const solver::ChebyshevSqrt cheb(bounds, 30);
  const double rel_err =
      cheb.max_interval_error() / std::sqrt(condition);
  // Geometric convergence: even at condition 1e4 the paper's order 30
  // stays under ~2% relative, and far better for SD-like spectra.
  EXPECT_LT(rel_err, 0.02) << "condition=" << condition;
  if (condition <= 300.0) {
    EXPECT_LT(rel_err, 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(Conditions, ChebyshevConditionSweep,
                         ::testing::Values(10.0, 100.0, 300.0, 1000.0,
                                           10000.0),
                         [](const auto& pinfo) {
                           return "cond" + std::to_string(static_cast<int>(
                                               pinfo.param));
                         });

// ---------------------------------------------------------------------------
// Cell list: pair sets nest with the cutoff and match brute force for
// packed polydisperse systems across occupancies.

class CellListPhiSweep : public ::testing::TestWithParam<double> {};

TEST_P(CellListPhiSweep, PairsMatchBruteForceAndNestInCutoff) {
  const double phi = GetParam();
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(), 120, 7);
  sd::PackingParams params;
  params.seed = 7;
  const auto system = sd::pack_equilibrated(std::move(radii), phi, params);

  auto pair_set = [&](double cutoff) {
    std::set<std::pair<std::size_t, std::size_t>> out;
    const sd::CellList cells(system, cutoff);
    cells.for_each_pair([&](const sd::Pair& p) { out.insert({p.i, p.j}); });
    return out;
  };

  const auto small = pair_set(2.0);
  const auto large = pair_set(3.5);
  // Nesting.
  for (const auto& p : small) EXPECT_TRUE(large.count(p) > 0);

  // Brute-force reference at the small cutoff.
  std::set<std::pair<std::size_t, std::size_t>> expected;
  const auto pos = system.positions();
  for (std::size_t i = 0; i < system.size(); ++i) {
    for (std::size_t j = i + 1; j < system.size(); ++j) {
      if (system.box().min_image(pos[i], pos[j]).norm() < 2.0) {
        expected.insert({i, j});
      }
    }
  }
  EXPECT_EQ(small, expected);
}

TEST_P(CellListPhiSweep, InteractingPairsAgreeWithFilteredFullSet) {
  const double phi = GetParam();
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(), 120, 9);
  sd::PackingParams params;
  params.seed = 9;
  const auto system = sd::pack_equilibrated(std::move(radii), phi, params);
  const double max_gap_scaled = 1.0;
  const double cutoff =
      sd::lubrication_cutoff_distance(system.max_radius(),
                                      {1.0, 1e-4, max_gap_scaled});
  const sd::CellList cells(system, cutoff);

  std::set<std::pair<std::size_t, std::size_t>> filtered, direct;
  cells.for_each_pair([&](const sd::Pair& p) {
    const double mean_radius =
        0.5 * (system.radii()[p.i] + system.radii()[p.j]);
    if (p.gap < max_gap_scaled * mean_radius) filtered.insert({p.i, p.j});
  });
  cells.for_each_interacting_pair(max_gap_scaled, [&](const sd::Pair& p) {
    direct.insert({p.i, p.j});
  });
  EXPECT_EQ(filtered, direct);
}

INSTANTIATE_TEST_SUITE_P(Phis, CellListPhiSweep,
                         ::testing::Values(0.1, 0.25, 0.4, 0.5),
                         [](const auto& pinfo) {
                           return "phi" + std::to_string(static_cast<int>(
                                              pinfo.param * 100));
                         });

// ---------------------------------------------------------------------------
// Resistance assembly invariants across cutoff and occupancy.

class ResistanceSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(ResistanceSweep, SymmetricWithFarFieldRowSums) {
  const auto [phi, cutoff] = GetParam();
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(), 90, 11);
  sd::PackingParams packing;
  packing.seed = 11;
  const auto system = sd::pack_equilibrated(std::move(radii), phi, packing);
  sd::ResistanceParams params;
  params.lubrication.max_gap_scaled = cutoff;
  const auto r = sd::AssemblyEngine(params).assemble_full(system).matrix;
  EXPECT_LT(r.asymmetry(), 1e-10);
  // Lubrication annihilates rigid translation: R * ones = drag diag.
  std::vector<double> ones(r.cols(), 1.0), out(r.rows());
  sparse::spmv_reference(r, ones, out);
  for (std::size_t i = 0; i < system.size(); ++i) {
    EXPECT_NEAR(out[3 * i], out[3 * i + 1], 1e-7 * std::abs(out[3 * i]));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ResistanceSweep,
    ::testing::Combine(::testing::Values(0.3, 0.5),
                       ::testing::Values(0.5, 2.05, 3.0)),
    [](const auto& pinfo) {
      return "phi" +
             std::to_string(static_cast<int>(std::get<0>(pinfo.param) * 100)) +
             "_cut" +
             std::to_string(static_cast<int>(std::get<1>(pinfo.param) * 100));
    });

// ---------------------------------------------------------------------------
// GSPMV kernel agreement across widths on awkward m values.

class KernelWidthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelWidthSweep, AllKernelsAgree) {
  const std::size_t m = GetParam();
  const auto a = sparse::make_random_bcrs(48, 7.0, 101);
  util::StreamRng rng(m);
  sparse::MultiVector x(a.cols(), m), y_ref(a.rows(), m),
      y_best(a.rows(), m), y_256(a.rows(), m);
  x.fill_normal(rng);
  const sparse::GspmvEngine engine(a, 1);
  engine.apply(x, y_ref, sparse::GspmvKernel::kReference);
  engine.apply(x, y_best, sparse::GspmvKernel::kAuto);
  engine.apply(x, y_256, sparse::GspmvKernel::kForceAvx2);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      EXPECT_NEAR(y_best(i, j), y_ref(i, j),
                  1e-12 * (1.0 + std::abs(y_ref(i, j))));
      EXPECT_NEAR(y_256(i, j), y_ref(i, j),
                  1e-12 * (1.0 + std::abs(y_ref(i, j))));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AwkwardWidths, KernelWidthSweep,
                         ::testing::Values<std::size_t>(2, 5, 6, 7, 9, 11,
                                                        13, 15, 17, 23, 25,
                                                        33, 47));

}  // namespace
