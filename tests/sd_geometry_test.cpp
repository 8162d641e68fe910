// Tests for SD geometry: Vec3, periodic box, radii distribution,
// cell lists, particle system bookkeeping.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "sd/cell_list.hpp"
#include "sd/particle_system.hpp"
#include "sd/radii.hpp"
#include "sd/vec3.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;
using sd::Vec3;

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  const Vec3 s = a + b;
  EXPECT_DOUBLE_EQ(s.x, 5.0);
  EXPECT_DOUBLE_EQ((a - b).z, -3.0);
  EXPECT_DOUBLE_EQ((2.0 * a).y, 4.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_DOUBLE_EQ((Vec3{3, 4, 0}).norm(), 5.0);
}

TEST(PeriodicBox, WrapIntoRange) {
  const sd::PeriodicBox box(10.0);
  EXPECT_DOUBLE_EQ(box.wrap1(3.0), 3.0);
  EXPECT_DOUBLE_EQ(box.wrap1(13.0), 3.0);
  EXPECT_DOUBLE_EQ(box.wrap1(-2.0), 8.0);
  const Vec3 w = box.wrap({-1.0, 11.0, 5.0});
  EXPECT_DOUBLE_EQ(w.x, 9.0);
  EXPECT_DOUBLE_EQ(w.y, 1.0);
  EXPECT_DOUBLE_EQ(w.z, 5.0);
}

TEST(PeriodicBox, MinimumImageShorterThanHalfBox) {
  const sd::PeriodicBox box(10.0);
  const Vec3 d = box.min_image({9.5, 0, 0}, {0.5, 0, 0});
  EXPECT_DOUBLE_EQ(d.x, -1.0);  // through the boundary
  util::StreamRng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const Vec3 a{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)};
    const Vec3 b{rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10)};
    const Vec3 d2 = box.min_image(a, b);
    EXPECT_LE(std::abs(d2.x), 5.0);
    EXPECT_LE(std::abs(d2.y), 5.0);
    EXPECT_LE(std::abs(d2.z), 5.0);
  }
}

TEST(Radii, TableFourMassSumsToOne) {
  const auto bins = sd::ecoli_cytoplasm_distribution();
  EXPECT_EQ(bins.size(), 15u);
  double mass = 0.0;
  for (const auto& b : bins) mass += b.fraction;
  EXPECT_NEAR(mass, 1.0, 1e-6);
  // Largest protein in Table IV is 115.24 A.
  EXPECT_DOUBLE_EQ(bins.front().radius_angstrom, 115.24);
}

TEST(Radii, SamplingMatchesDistribution) {
  const auto bins = sd::ecoli_cytoplasm_distribution();
  const double mean = sd::distribution_mean(bins);
  const auto radii = sd::sample_radii(bins, 100000, 42);
  // Normalized sample mean ~ 1.
  double sample_mean = 0.0;
  for (double r : radii) sample_mean += r;
  sample_mean /= static_cast<double>(radii.size());
  EXPECT_NEAR(sample_mean, 1.0, 0.01);
  // The most frequent bin (27.77 A, 25.97%) appears at its rate.
  const double target = 27.77 / mean;
  std::size_t hits = 0;
  for (double r : radii) {
    if (std::abs(r - target) < 1e-9) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.2597, 0.01);
}

TEST(Radii, SamplingDeterministicInSeed) {
  const auto bins = sd::ecoli_cytoplasm_distribution();
  const auto a = sd::sample_radii(bins, 100, 7);
  const auto b = sd::sample_radii(bins, 100, 7);
  const auto c = sd::sample_radii(bins, 100, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Radii, BoxLengthProducesRequestedOccupancy) {
  const auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(),
                                      500, 3);
  for (double phi : {0.1, 0.3, 0.5}) {
    const double box_len = sd::box_length_for_occupancy(radii, phi);
    const double vol = sd::total_volume(radii);
    EXPECT_NEAR(vol / (box_len * box_len * box_len), phi, 1e-12);
  }
  EXPECT_THROW((void)sd::box_length_for_occupancy(radii, 0.0),
               std::invalid_argument);
  EXPECT_THROW((void)sd::box_length_for_occupancy(radii, 1.5),
               std::invalid_argument);
}

sd::ParticleSystem random_system(std::size_t n, double box_len,
                                 std::uint64_t seed) {
  util::StreamRng rng(seed);
  std::vector<Vec3> pos(n);
  std::vector<double> radii(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = {rng.uniform(0, box_len), rng.uniform(0, box_len),
              rng.uniform(0, box_len)};
    radii[i] = rng.uniform(0.5, 1.5);
  }
  return {std::move(pos), std::move(radii), sd::PeriodicBox(box_len)};
}

TEST(CellList, FindsSamePairsAsBruteForce) {
  const auto system = random_system(150, 12.0, 5);
  const double cutoff = 3.0;
  const sd::CellList cells(system, cutoff);
  EXPECT_GE(cells.cells_per_side(), 3u);
  auto pairs = cells.pairs();

  // Brute force reference.
  std::set<std::pair<std::size_t, std::size_t>> expected;
  const auto pos = system.positions();
  for (std::size_t i = 0; i < system.size(); ++i) {
    for (std::size_t j = i + 1; j < system.size(); ++j) {
      if (system.box().min_image(pos[i], pos[j]).norm() < cutoff) {
        expected.insert({i, j});
      }
    }
  }
  std::set<std::pair<std::size_t, std::size_t>> got;
  for (const auto& p : pairs) {
    EXPECT_LT(p.i, p.j);
    EXPECT_LT(p.distance, cutoff);
    got.insert({p.i, p.j});
  }
  EXPECT_EQ(got, expected);
  EXPECT_EQ(got.size(), pairs.size());  // no duplicates
}

TEST(CellList, BruteForceFallbackForLargeCutoff) {
  const auto system = random_system(40, 5.0, 6);
  const sd::CellList cells(system, 4.0);  // < 3 cells per side
  EXPECT_EQ(cells.cells_per_side(), 1u);
  std::set<std::pair<std::size_t, std::size_t>> got;
  for (const auto& p : cells.pairs()) got.insert({p.i, p.j});

  std::set<std::pair<std::size_t, std::size_t>> expected;
  const auto pos = system.positions();
  for (std::size_t i = 0; i < system.size(); ++i) {
    for (std::size_t j = i + 1; j < system.size(); ++j) {
      if (system.box().min_image(pos[i], pos[j]).norm() < 4.0) {
        expected.insert({i, j});
      }
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(CellList, PairGeometryConsistent) {
  const auto system = random_system(60, 10.0, 7);
  const sd::CellList cells(system, 2.5);
  const auto radii = system.radii();
  cells.for_each_pair([&](const sd::Pair& p) {
    EXPECT_NEAR(p.unit.norm(), 1.0, 1e-12);
    EXPECT_NEAR(p.gap, p.distance - radii[p.i] - radii[p.j], 1e-12);
    // unit must point from j to i.
    const Vec3 d = system.box().min_image(system.positions()[p.i],
                                          system.positions()[p.j]);
    EXPECT_NEAR(d.x, p.unit.x * p.distance, 1e-9);
  });
}

TEST(CellList, InvalidCutoffThrows) {
  const auto system = random_system(10, 5.0, 8);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double cutoff :
       {0.0, -1.0, inf, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(sd::CellList(system, cutoff), std::invalid_argument)
        << "cutoff " << cutoff;
  }
  // A box without a finite length has no grid to bin into.
  for (const double box : {inf, std::numeric_limits<double>::quiet_NaN()}) {
    const sd::ParticleSystem unbounded({{1.0, 2.0, 3.0}, {1.5, 2.0, 3.0}},
                                       {0.5, 0.5}, sd::PeriodicBox(box));
    EXPECT_THROW(sd::CellList(unbounded, 1.0), std::invalid_argument)
        << "box " << box;
  }
}

TEST(ParticleSystem, AdvanceWrapsAndTracksUnwrapped) {
  std::vector<Vec3> pos = {{9.5, 5.0, 5.0}};
  std::vector<double> radii = {1.0};
  sd::ParticleSystem system(std::move(pos), std::move(radii),
                            sd::PeriodicBox(10.0));
  const std::vector<double> u = {1.0, 0.0, 0.0};
  system.advance(u, 1.0);  // crosses the boundary
  EXPECT_NEAR(system.positions()[0].x, 0.5, 1e-12);
  EXPECT_NEAR(system.unwrapped_displacement(0).x, 1.0, 1e-12);
  EXPECT_NEAR(system.mean_squared_displacement(), 1.0, 1e-12);
}

TEST(ParticleSystem, MaxStepClampsDisplacement) {
  std::vector<Vec3> pos = {{5, 5, 5}};
  std::vector<double> radii = {1.0};
  sd::ParticleSystem system(std::move(pos), std::move(radii),
                            sd::PeriodicBox(10.0));
  const std::vector<double> u = {30.0, 40.0, 0.0};  // |u| dt = 50
  system.advance(u, 1.0, /*max_step=*/0.5);
  EXPECT_NEAR(system.unwrapped_displacement(0).norm(), 0.5, 1e-12);
}

TEST(ParticleSystem, SnapshotRestoreRoundTrip) {
  auto system = random_system(20, 8.0, 9);
  const auto snap = system.snapshot();
  std::vector<double> u(60, 0.3);
  system.advance(u, 1.0);
  EXPECT_GT(system.mean_squared_displacement(), 0.0);
  system.restore(snap);
  EXPECT_DOUBLE_EQ(system.mean_squared_displacement(), 0.0);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(system.positions()[i].x, snap.positions[i].x);
  }
}

TEST(ParticleSystem, GapAndOverlapDiagnostics) {
  std::vector<Vec3> pos = {{1, 1, 1}, {1, 1, 3.5}, {8, 8, 8}};
  std::vector<double> radii = {1.0, 1.0, 1.0};
  sd::ParticleSystem system(std::move(pos), std::move(radii),
                            sd::PeriodicBox(20.0));
  EXPECT_NEAR(system.min_gap_bruteforce(), 0.5, 1e-12);
  EXPECT_EQ(system.overlap_count_bruteforce(), 0u);
}

}  // namespace
