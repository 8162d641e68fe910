// Tests for sd::AssemblyEngine: the tolerance = 0 bitwise contract
// (the candidate list across rebuilds, at its skin boundary and at any
// thread count), the same path above it (a search equals a fresh
// full build, only active pairs are stored, the bits do not depend on
// the thread count), dirty-pair tracker invariants (monotone drift
// accumulation, reset on recompute, Verlet list expiry), engine-state
// export/import, and the end-to-end bitwise guarantees (checkpoint
// resume, resilience rollback) with incremental assembly enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numbers>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/resilience.hpp"
#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "sd/assembly_engine.hpp"
#include "sd/cell_list.hpp"
#include "sd/effective_viscosity.hpp"
#include "sd/lubrication.hpp"
#include "sd/particle_system.hpp"
#include "sd/radii.hpp"
#include "sparse/bcrs.hpp"
#include "util/aligned.hpp"

namespace {

using namespace mrhs;
using sd::Vec3;

core::SdConfig small_config(std::uint64_t seed = 77) {
  core::SdConfig config;
  config.particles = 48;
  config.phi = 0.3;
  config.seed = seed;
  return config;
}

void expect_bitwise_equal(const sparse::BcrsMatrix& a,
                          const sparse::BcrsMatrix& b) {
  ASSERT_TRUE(a.same_pattern(b));
  const auto va = a.values();
  const auto vb = b.values();
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t k = 0; k < va.size(); ++k) {
    ASSERT_EQ(va[k], vb[k]) << "value " << k;
  }
}

void expect_bitwise_equal_positions(const core::SdSimulation& a,
                                    const core::SdSimulation& b) {
  ASSERT_EQ(a.system().size(), b.system().size());
  const auto pa = a.system().positions();
  const auto pb = b.system().positions();
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i].x, pb[i].x) << "particle " << i;
    ASSERT_EQ(pa[i].y, pb[i].y) << "particle " << i;
    ASSERT_EQ(pa[i].z, pb[i].z) << "particle " << i;
  }
}

/// Two spheres with a 0.05 surface gap (scaled gap 0.05 < the 0.1
/// default cutoff): one active lubrication pair, easy to drift by hand.
sd::ParticleSystem two_sphere_system() {
  return sd::ParticleSystem({{5.0, 5.0, 5.0}, {7.05, 5.0, 5.0}},
                            {1.0, 1.0}, sd::PeriodicBox(20.0));
}

// --- tolerance = 0: the bitwise reference contract ---------------------

TEST(AssemblyEngine, ToleranceZeroIsBitwiseIdenticalToFull) {
  // Drive a real trajectory and compare the incremental entry point
  // (which must route to the full path at tolerance 0) against a fresh
  // full assembly at every sampled configuration.
  core::SdSimulation sim(small_config());
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  sd::AssemblyEngine incremental(sim.resistance_params());  // tol = 0
  for (int leg = 0; leg < 3; ++leg) {
    (void)alg.run(2);
    const auto inc = incremental.assemble_incremental(sim.system());
    const auto full =
        sd::AssemblyEngine(sim.resistance_params()).assemble_full(sim.system());
    expect_bitwise_equal(inc.matrix, full.matrix);
    // pattern_rebuilt marks a list search: only the first call needs
    // one, as six steps move no particle skin/2.
    EXPECT_EQ(inc.stats.pattern_rebuilt, leg == 0);
    EXPECT_EQ(inc.stats.blocks_reused, 0u);
    EXPECT_EQ(inc.stats.pairs_dirty, inc.stats.pairs_active);
  }
}

/// `n` E. coli radii at uniformly random positions in the periodic box
/// of volume fraction `phi` (no packer, so the sanitizer builds stay
/// fast; overlapping pairs clamp at the gap floor).
sd::ParticleSystem random_system(std::size_t n, double phi,
                                 std::uint64_t seed) {
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(), n, seed);
  double volume = 0.0;
  for (double a : radii) volume += 4.0 / 3.0 * std::numbers::pi * a * a * a;
  const double length = std::cbrt(volume / phi);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coord(0.0, length);
  std::vector<Vec3> positions(n);
  for (Vec3& x : positions) x = {coord(rng), coord(rng), coord(rng)};
  return sd::ParticleSystem(std::move(positions), std::move(radii),
                            sd::PeriodicBox(length));
}

/// R built as documented, without the engine: every active pair in
/// (i, j) order, each diagonal summed in that order, each row sorted.
sparse::BcrsMatrix canonical_reference(const sd::ParticleSystem& system,
                                       const sd::ResistanceParams& params) {
  const auto radii = system.radii();
  const sd::CellList cells(
      system,
      sd::lubrication_cutoff_distance(system.max_radius(), params.lubrication));
  std::vector<sd::Pair> pairs;
  cells.for_each_interacting_pair(
      params.lubrication.max_gap_scaled, [&](const sd::Pair& p) {
        if (sd::lubrication_active(p.gap, radii[p.i], radii[p.j],
                                   params.lubrication)) {
          pairs.push_back(p);
        }
      });
  std::sort(pairs.begin(), pairs.end(), [](const auto& a, const auto& b) {
    return std::pair(a.i, a.j) < std::pair(b.i, b.j);
  });
  const std::size_t n = system.size();
  using Block = std::array<double, 9>;
  std::vector<std::vector<std::pair<std::size_t, Block>>> rows(n);
  const double phi = system.volume_fraction();
  for (std::size_t r = 0; r < n; ++r) {
    const double drag = sd::far_field_drag(radii[r], params.viscosity, phi);
    rows[r].push_back({r, {drag, 0, 0, 0, drag, 0, 0, 0, drag}});
  }
  for (const sd::Pair& p : pairs) {
    Block t{};
    sd::lubrication_pair_tensor(p.unit, radii[p.i], radii[p.j], p.gap,
                                params.lubrication, t);
    Block minus{};
    for (int c = 0; c < 9; ++c) {
      rows[p.i].front().second[c] += t[c];
      rows[p.j].front().second[c] += t[c];
      minus[c] = -t[c];
    }
    rows[p.i].push_back({p.j, minus});
    rows[p.j].push_back({p.i, minus});
  }
  std::vector<std::int64_t> row_ptr{0};
  std::vector<std::int32_t> col_idx;
  util::AlignedVector<double> values;
  for (auto& row : rows) {
    std::sort(row.begin(), row.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (const auto& [col, block] : row) {
      col_idx.push_back(static_cast<std::int32_t>(col));
      values.insert(values.end(), block.begin(), block.end());
    }
    row_ptr.push_back(static_cast<std::int64_t>(col_idx.size()));
  }
  return sparse::BcrsMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                            std::move(values));
}

sd::ResistanceParams simulation_params() {
  sd::ResistanceParams params;
  params.lubrication.max_gap_scaled = 2.05;  // SdConfig's default reach
  return params;
}

TEST(AssemblyEngine, ExactPathSumsInCanonicalPairOrder) {
  // One cell at 600 particles (the order a from-scratch enumeration
  // gives) and a grid at 3,000 (where the canonical order is a
  // deliberate choice): the bits are pinned to the documented order.
  for (const std::size_t n : {600u, 3000u}) {
    const auto system = random_system(n, 0.5, 7);
    const auto params = simulation_params();
    const auto exact = sd::AssemblyEngine(params).assemble_full(system);
    expect_bitwise_equal(exact.matrix, canonical_reference(system, params));
  }
}

/// Per coordinate and call, a uniform drift of up to 0.2 of the exact
/// path's list skin (0.05 × the largest radius).
void drift(sd::ParticleSystem& system, std::mt19937_64& rng) {
  const double width = 0.2 * (0.05 * system.max_radius());
  std::uniform_real_distribution<double> step(-width, width);
  for (Vec3& x : system.positions()) {
    x = x + Vec3{step(rng), step(rng), step(rng)};
  }
}

class ListAcrossRebuildTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  /// Drift every particle between calls, so the list expires every
  /// few calls and is reused in between. The lent matrices at 1 and 4
  /// engine threads must equal each other bitwise at every call; at
  /// tolerance 0 also a fresh from-scratch build.
  void check_across_rebuilds(double tolerance) {
    auto system = random_system(GetParam(), 0.5, 11);
    const auto params = simulation_params();
    sd::AssemblyEngine serial(params,
                              {.tolerance = tolerance, .threads = 1});
    sd::AssemblyEngine threaded(params,
                                {.tolerance = tolerance, .threads = 4});
    std::mt19937_64 rng(5);
    constexpr std::size_t kCalls = 8;
    std::size_t mixed_calls = 0;  // some candidates recomputed, some kept
    for (std::size_t call = 0; call < kCalls; ++call) {
      if (call > 0) drift(system, rng);
      const auto searches = serial.pattern_rebuilds();
      const auto dirty = serial.pairs_dirty_total();
      const auto reused = serial.blocks_reused_total();
      const sparse::BcrsMatrix& one = serial.assemble(system);
      const sparse::BcrsMatrix& four = threaded.assemble(system);
      expect_bitwise_equal(one, four);
      if (tolerance == 0.0) {
        expect_bitwise_equal(one, sd::AssemblyEngine(params)
                                      .assemble_full(system)
                                      .matrix);
      }
      if (serial.pattern_rebuilds() == searches &&
          serial.pairs_dirty_total() > dirty &&
          serial.blocks_reused_total() > reused) {
        ++mixed_calls;
      }
    }
    EXPECT_GE(serial.pattern_rebuilds(), 2u);
    EXPECT_LT(serial.pattern_rebuilds(), kCalls);
    EXPECT_EQ(threaded.pattern_rebuilds(), serial.pattern_rebuilds());
    EXPECT_EQ(threaded.pairs_dirty_total(), serial.pairs_dirty_total());
    if (tolerance > 0.0) {
      EXPECT_GT(mixed_calls, 0u);
    }
    // Candidates above the serial threshold, so four threads did run.
    EXPECT_GT(serial.assemble_incremental(system).stats.pairs_in_cutoff,
              4096u);
  }
};

TEST_P(ListAcrossRebuildTest, EveryLentMatrixEqualsAFreshFullBuild) {
  check_across_rebuilds(0.0);
}

TEST_P(ListAcrossRebuildTest, IncrementalBitsDoNotDependOnThreads) {
  check_across_rebuilds(0.05);
}

// 600 particles fit one cell (i, j enumeration); 3,000 make a grid,
// whose cell-by-cell order the list replaces with (i, j).
INSTANTIATE_TEST_SUITE_P(Particles, ListAcrossRebuildTest,
                         ::testing::Values(600, 3000));

TEST(AssemblyEngine, IncrementalSearchEqualsAFreshFullBuild) {
  // Every call that searches recomputes every candidate at the
  // current positions, so its lent matrix is the exact one, pattern
  // included. Between searches only the active pairs are stored.
  auto system = random_system(600, 0.5, 3);
  const auto params = simulation_params();
  sd::AssemblyEngine engine(params, {.tolerance = 0.05});
  std::mt19937_64 rng(9);
  std::size_t searches = 0;
  for (std::size_t call = 0; call < 12; ++call) {
    if (call > 0) drift(system, rng);
    const auto r = engine.assemble_incremental(system);
    EXPECT_EQ(r.matrix.nnzb(), system.size() + 2 * r.stats.pairs_active)
        << "call " << call;
    if (!r.stats.pattern_rebuilt) continue;
    ++searches;
    expect_bitwise_equal(
        r.matrix, sd::AssemblyEngine(params).assemble_full(system).matrix);
  }
  EXPECT_GE(searches, 2u);
}

TEST(AssemblyEngine, DirtyRecomputeThatDeactivatesAPairDropsItsBlocks) {
  // Gap 0.05 (active) to 0.12 (inactive) in one move: more than the
  // tolerance, less than skin/2, so a recompute without a search.
  auto system = two_sphere_system();
  sd::AssemblyEngine engine({}, {.tolerance = 0.05});
  const auto first = engine.assemble_incremental(system);
  EXPECT_EQ(first.stats.pairs_active, 1u);
  EXPECT_EQ(first.matrix.nnzb(), 4u);

  const Vec3 start = system.positions()[1];
  system.positions()[1].x += 0.07;
  const auto apart = engine.assemble_incremental(system);
  EXPECT_FALSE(apart.stats.pattern_rebuilt);
  EXPECT_EQ(apart.stats.pairs_dirty, 1u);
  EXPECT_EQ(apart.stats.pairs_active, 0u);
  EXPECT_EQ(apart.matrix.nnzb(), 2u);

  system.positions()[1] = start;
  const auto back = engine.assemble_incremental(system);
  EXPECT_FALSE(back.stats.pattern_rebuilt);
  EXPECT_EQ(back.stats.pairs_active, 1u);
  EXPECT_EQ(back.matrix.nnzb(), 4u);
  expect_bitwise_equal(back.matrix, first.matrix);
}

TEST(AssemblyEngine, PairEnteringReachWithinHalfSkinNeedsNoSearch) {
  // Gap 0.12: a candidate (reach 2.1 plus a 0.05 skin) but inactive.
  sd::ParticleSystem system({{5.0, 5.0, 5.0}, {7.12, 5.0, 5.0}}, {1.0, 1.0},
                            sd::PeriodicBox(20.0));
  sd::AssemblyEngine engine({});
  const auto first = engine.assemble_incremental(system);
  EXPECT_TRUE(first.stats.pattern_rebuilt);
  EXPECT_EQ(first.stats.pairs_in_cutoff, 1u);
  EXPECT_EQ(first.stats.pairs_active, 0u);
  EXPECT_EQ(first.matrix.nnzb(), 2u);
  const double half_skin = 0.5 * engine.skin();
  ASSERT_GT(half_skin, 0.0);

  // Just under skin/2 towards the other sphere: the pair becomes
  // active and is stored without a search.
  system.positions()[1].x -= half_skin - 1e-3;
  const auto under = engine.assemble_incremental(system);
  EXPECT_FALSE(under.stats.pattern_rebuilt);
  EXPECT_EQ(under.stats.pairs_active, 1u);
  EXPECT_EQ(under.matrix.nnzb(), 4u);
  expect_bitwise_equal(under.matrix,
                       sd::AssemblyEngine({}).assemble_full(system).matrix);

  // Just over skin/2 from where the list was searched: search again.
  system.positions()[1].x -= 2e-3;
  const auto over = engine.assemble_incremental(system);
  EXPECT_TRUE(over.stats.pattern_rebuilt);
  EXPECT_EQ(engine.pattern_rebuilds(), 2u);
  expect_bitwise_equal(over.matrix,
                       sd::AssemblyEngine({}).assemble_full(system).matrix);
}

// --- the lent matrix ----------------------------------------------------

class LentMatrixTest : public ::testing::TestWithParam<double> {};

TEST_P(LentMatrixTest, ReassemblyRefillsTheSameArraysBitwise) {
  // Steppers bind engine().assemble(): the engine refills one matrix,
  // so a second assembly at the same configuration writes into the
  // same value array, and the lent matrix equals the by-value result.
  core::SdConfig config = small_config();
  config.assembly_tolerance = GetParam();
  core::SdSimulation sim(config);
  sd::AssemblyEngine& engine = sim.engine();
  const sparse::BcrsMatrix& lent = engine.assemble(sim.system());
  const double* first_values = lent.values().data();
  const sparse::BcrsMatrix& again = engine.assemble(sim.system());
  EXPECT_EQ(&again, &lent);
  EXPECT_EQ(again.values().data(), first_values);

  core::SdSimulation twin(config);
  expect_bitwise_equal(lent, twin.assemble().matrix);
}

INSTANTIATE_TEST_SUITE_P(Tolerance, LentMatrixTest,
                         ::testing::Values(0.0, 0.05));

// --- dirty-pair tracker invariants -------------------------------------

TEST(AssemblyEngine, PatternAndBlocksReusedWhileStationary) {
  const auto system = two_sphere_system();
  sd::AssemblyEngine engine({}, {.tolerance = 0.05});
  const auto first = engine.assemble_incremental(system);
  EXPECT_TRUE(first.stats.pattern_rebuilt);
  EXPECT_EQ(first.stats.pairs_active, 1u);
  EXPECT_EQ(first.stats.pairs_dirty, 1u);
  const auto epoch = engine.pattern_epoch();

  const auto second = engine.assemble_incremental(system);
  EXPECT_FALSE(second.stats.pattern_rebuilt);
  EXPECT_EQ(second.stats.pairs_dirty, 0u);
  EXPECT_EQ(second.stats.blocks_reused, 2u);
  EXPECT_EQ(engine.pattern_epoch(), epoch);
  expect_bitwise_equal(first.matrix, second.matrix);
}

TEST(AssemblyEngine, DriftAccumulatesMonotonicallyAndResetsOnRecompute) {
  auto system = two_sphere_system();
  sd::AssemblyEngine engine({}, {.tolerance = 0.05});
  (void)engine.assemble_incremental(system);

  // Per-call motion far below tolerance (0.02 < 0.05), perpendicular
  // to the pair axis so the gap barely changes. The tracker must
  // accumulate drift across calls — not compare against the previous
  // call's positions — so the third sub-tolerance move (total 0.06)
  // crosses the threshold.
  std::size_t dirty_at = 0;
  for (std::size_t call = 1; call <= 4 && dirty_at == 0; ++call) {
    system.positions()[1].y += 0.02;
    const auto r = engine.assemble_incremental(system);
    EXPECT_FALSE(r.stats.pattern_rebuilt);
    if (r.stats.pairs_dirty > 0) dirty_at = call;
  }
  EXPECT_EQ(dirty_at, 3u);

  // The recompute reset the pair's references: the next small move
  // starts a fresh accumulation and stays clean.
  system.positions()[1].y += 0.02;
  const auto after = engine.assemble_incremental(system);
  EXPECT_EQ(after.stats.pairs_dirty, 0u);
  EXPECT_EQ(after.stats.blocks_reused, 2u);
}

TEST(AssemblyEngine, MotionPastHalfSkinForcesPatternRebuild) {
  auto system = two_sphere_system();
  sd::AssemblyEngine engine({}, {.tolerance = 0.05});
  (void)engine.assemble_incremental(system);
  const auto epoch = engine.pattern_epoch();
  ASSERT_GT(engine.skin(), 0.0);

  // A particle outrunning skin/2 invalidates the Verlet neighbor
  // pattern: a pair outside it could now be in reach.
  system.positions()[1].y += 0.5 * engine.skin() + 0.01;
  const auto r = engine.assemble_incremental(system);
  EXPECT_TRUE(r.stats.pattern_rebuilt);
  EXPECT_EQ(engine.pattern_epoch(), epoch + 1);
  EXPECT_EQ(r.stats.blocks_reused, 0u);
}

// --- engine-state round-trip -------------------------------------------

TEST(AssemblyEngine, ExportImportRoundTripIsBitwise) {
  auto system = two_sphere_system();
  sd::AssemblyEngine original({}, {.tolerance = 0.05});
  (void)original.assemble_incremental(system);
  system.positions()[1].y += 0.04;  // below tolerance: refs stay put
  (void)original.assemble_incremental(system);

  sd::AssemblyEngine restored({}, {.tolerance = 0.05});
  restored.import_state(original.export_state(), system);
  EXPECT_EQ(restored.pattern_epoch(), original.pattern_epoch());
  EXPECT_TRUE(restored.has_pattern());

  // Same subsequent motion -> same dirty decisions, same values, and
  // the pattern survives in both (no spurious rebuild on the restored
  // side).
  system.positions()[1].y += 0.02;  // accumulated 0.06 > tolerance
  const auto a = original.assemble_incremental(system);
  const auto b = restored.assemble_incremental(system);
  EXPECT_FALSE(a.stats.pattern_rebuilt);
  EXPECT_FALSE(b.stats.pattern_rebuilt);
  EXPECT_EQ(a.stats.pairs_dirty, b.stats.pairs_dirty);
  EXPECT_EQ(a.stats.pairs_dirty, 1u);
  expect_bitwise_equal(a.matrix, b.matrix);
}

TEST(AssemblyEngine, ExportImportRoundTripOnAGridIsBitwise) {
  // 3,000 particles make a cell grid, whose emission order differs
  // from the canonical one: the exported references must come back on
  // the same candidates.
  auto system = random_system(3000, 0.5, 17);
  const auto params = simulation_params();
  sd::AssemblyEngine original(params, {.tolerance = 0.05});
  std::mt19937_64 rng(21);
  (void)original.assemble(system);
  drift(system, rng);
  const auto dirtied = original.assemble_incremental(system);
  ASSERT_FALSE(dirtied.stats.pattern_rebuilt);
  ASSERT_GT(dirtied.stats.pairs_dirty, 0u);
  ASSERT_GT(dirtied.stats.blocks_reused, 0u);

  sd::AssemblyEngine restored(params, {.tolerance = 0.05});
  restored.import_state(original.export_state(), system);
  for (std::size_t call = 0; call < 3; ++call) {
    if (call > 0) drift(system, rng);
    const auto a = original.assemble_incremental(system);
    const auto b = restored.assemble_incremental(system);
    EXPECT_EQ(a.stats.pattern_rebuilt, b.stats.pattern_rebuilt);
    EXPECT_EQ(a.stats.pairs_dirty, b.stats.pairs_dirty);
    expect_bitwise_equal(a.matrix, b.matrix);
  }
}

TEST(AssemblyEngine, ImportOfForeignStateDegradesToNoPattern) {
  auto system = two_sphere_system();
  sd::AssemblyEngine engine({}, {.tolerance = 0.05});
  (void)engine.assemble_incremental(system);
  auto state = engine.export_state();
  state.pattern_refs.pop_back();  // wrong particle count for `system`

  sd::AssemblyEngine restored({}, {.tolerance = 0.05});
  restored.import_state(state, system);
  EXPECT_FALSE(restored.has_pattern());
  // Recoverable: the next incremental call simply rebuilds.
  const auto r = restored.assemble_incremental(system);
  EXPECT_TRUE(r.stats.pattern_rebuilt);
}

// --- end-to-end bitwise guarantees with incremental assembly -----------

TEST(AssemblyEngine, CheckpointResumeIsBitwiseWithToleranceEnabled) {
  auto config = small_config();
  config.assembly_tolerance = 0.05;  // fraction of the mean radius
  constexpr std::size_t kTotal = 10;
  constexpr std::size_t kStop = 6;

  core::SdSimulation straight(config);
  core::MrhsAlgorithm straight_alg(straight, {.rhs = 4});
  straight_alg.set_horizon(kTotal);
  (void)straight_alg.run(kTotal);

  core::SdSimulation first(config);
  core::MrhsAlgorithm first_alg(first, {.rhs = 4});
  first_alg.set_horizon(kTotal);
  (void)first_alg.run(kStop);
  const std::string path = testing::TempDir() + "assembly_engine.ckpt";
  const auto ck = core::capture_checkpoint(first, first_alg);
  ASSERT_TRUE(core::save_checkpoint(ck, path).is_ok());

  core::Checkpoint loaded;
  ASSERT_TRUE(core::load_checkpoint(path, loaded).is_ok());
  EXPECT_EQ(loaded.config.assembly_tolerance, 0.05);
  std::optional<core::SdSimulation> resumed;
  ASSERT_TRUE(core::restore_simulation(loaded, resumed).is_ok());
  EXPECT_EQ(resumed->engine().pattern_epoch(),
            first.engine().pattern_epoch());
  core::MrhsAlgorithm resumed_alg(*resumed, {.rhs = loaded.mrhs_rhs});
  resumed_alg.import_state(loaded.mrhs_state);
  (void)resumed_alg.run(kTotal - kStop);

  expect_bitwise_equal_positions(straight, *resumed);
}

TEST(AssemblyEngine, ChaosRollbackReplaysBitwiseWithToleranceEnabled) {
  auto config = small_config();
  config.assembly_tolerance = 0.05;

  core::SdSimulation clean_sim(config);
  core::MrhsAlgorithm clean_alg(clean_sim, {.rhs = 4});
  core::ResilientRunner clean_runner(clean_sim, clean_alg);
  (void)clean_runner.run(12);

  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  core::ResilientRunner runner(sim, alg);
  bool poisoned = false;
  runner.set_post_step_hook([&](std::size_t step) {
    if (step == 5 && !poisoned) {
      poisoned = true;
      sim.system().positions()[0].x =
          std::numeric_limits<double>::quiet_NaN();
    }
  });
  const auto stats = runner.run(12);

  EXPECT_TRUE(poisoned);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_FALSE(stats.resilience_gave_up);
  // Rollback restored the engine's dirty-tracker state along with the
  // kinematics, so the replay makes the same reuse decisions and the
  // trajectory is bitwise the fault-free one.
  expect_bitwise_equal_positions(sim, clean_sim);
}

}  // namespace
