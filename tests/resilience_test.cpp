// Tests for the step-level resilience stack: fault-spec parsing, the
// chaos registry, the physics health monitor, the rollback/degradation
// runner, halo-corruption handling, and checkpoint truncation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "cluster/distributed_gspmv.hpp"
#include "cluster/distributed_operator.hpp"
#include "cluster/partitioner.hpp"
#include "core/checkpoint.hpp"
#include "core/health.hpp"
#include "core/resilience.hpp"
#include "core/stepper.hpp"
#include "sd/assembly_engine.hpp"
#include "sd/packing.hpp"
#include "sd/radii.hpp"
#include "sd/resistance.hpp"
#include "sparse/gspmv.hpp"
#include "util/cli.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;

core::SdConfig small_config(std::uint64_t seed = 91) {
  core::SdConfig config;
  config.particles = 48;
  config.phi = 0.3;
  config.seed = seed;
  return config;
}

std::vector<sd::Vec3> positions_of(const core::SdSimulation& sim) {
  const auto span = sim.system().positions();
  return {span.begin(), span.end()};
}

void expect_bitwise_equal(const std::vector<sd::Vec3>& a,
                          const std::vector<sd::Vec3>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x) << "particle " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "particle " << i;
    EXPECT_EQ(a[i].z, b[i].z) << "particle " << i;
  }
}

// ---------------------------------------------------------------------
// Fault-spec parsing (compiled in every build).

TEST(FaultSpecs, KnownSiteTable) {
  EXPECT_TRUE(util::is_known_fault_site("stepper.position.nan"));
  EXPECT_TRUE(util::is_known_fault_site("cluster.halo.corrupt"));
  EXPECT_FALSE(util::is_known_fault_site("no.such.site"));
  EXPECT_FALSE(util::is_known_fault_site(""));
}

TEST(FaultSpecs, ParsesHitSchedule) {
  std::vector<util::FaultSpec> specs;
  ASSERT_TRUE(
      util::parse_fault_specs("stepper.position.nan@9", 7, specs).is_ok());
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].site, "stepper.position.nan");
  EXPECT_EQ(specs[0].at_hit, 9u);
  EXPECT_LT(specs[0].probability, 0.0);
  EXPECT_EQ(specs[0].max_fires, 1);
  EXPECT_EQ(specs[0].seed, 7u);
}

TEST(FaultSpecs, ParsesProbabilityAndSuffixes) {
  std::vector<util::FaultSpec> specs;
  ASSERT_TRUE(util::parse_fault_specs(
                  "cluster.halo.corrupt@p=0.25:sticky,gspmv.apply.nan@3:x5",
                  11, specs)
                  .is_ok());
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_DOUBLE_EQ(specs[0].probability, 0.25);
  EXPECT_EQ(specs[0].max_fires, -1);
  EXPECT_EQ(specs[1].at_hit, 3u);
  EXPECT_EQ(specs[1].max_fires, 5);
}

TEST(FaultSpecs, RejectsMalformedSchedules) {
  std::vector<util::FaultSpec> specs;
  // Unknown sites, missing schedules, bad numbers: all hard errors — a
  // chaos run that silently arms nothing would pass vacuously.
  EXPECT_FALSE(util::parse_fault_specs("no.such.site@1", 0, specs).is_ok());
  EXPECT_FALSE(util::parse_fault_specs("stepper.position.nan", 0, specs)
                   .is_ok());
  EXPECT_FALSE(util::parse_fault_specs("stepper.position.nan@", 0, specs)
                   .is_ok());
  EXPECT_FALSE(
      util::parse_fault_specs("stepper.position.nan@p=1.5", 0, specs)
          .is_ok());
  EXPECT_FALSE(
      util::parse_fault_specs("stepper.position.nan@1:x0", 0, specs).is_ok());
  EXPECT_FALSE(
      util::parse_fault_specs("stepper.position.nan@1:bogus", 0, specs)
          .is_ok());
  EXPECT_FALSE(util::parse_fault_specs("", 0, specs).is_ok());
  EXPECT_FALSE(
      util::parse_fault_specs(",stepper.position.nan@1", 0, specs).is_ok());
}

// ---------------------------------------------------------------------
// Health monitor (compiled in every build; no fault registry needed).

TEST(HealthMonitor, CleanStateIsOk) {
  core::SdSimulation sim(small_config());
  core::StepHealthMonitor monitor(sim);
  const auto verdict = monitor.check(core::StepRecord{});
  EXPECT_TRUE(verdict.ok());
  EXPECT_EQ(verdict.check, core::HealthCheck::kNone);
  EXPECT_TRUE(verdict.detail.empty());
}

TEST(HealthMonitor, NanPositionIsCorrupt) {
  core::SdSimulation sim(small_config());
  core::StepHealthMonitor monitor(sim);
  sim.system().positions()[3].y = std::numeric_limits<double>::quiet_NaN();
  const auto verdict = monitor.check(core::StepRecord{});
  EXPECT_TRUE(verdict.corrupt());
  EXPECT_EQ(verdict.check, core::HealthCheck::kNonFinite);
  EXPECT_NE(verdict.detail.find("3"), std::string::npos);
}

TEST(HealthMonitor, TeleportBeyondClampIsCorrupt) {
  core::SdSimulation sim(small_config());
  core::StepHealthMonitor monitor(sim);
  // Move particle 0 ten clamps in one "step" via the integrator's own
  // advance() so the unwrapped bookkeeping sees the motion.
  std::vector<double> u(sim.dof(), 0.0);
  u[0] = 10.0 * sim.max_step_length() / sim.dt();
  sim.system().advance(u, sim.dt(), 0.0);
  const auto verdict = monitor.check(core::StepRecord{});
  EXPECT_TRUE(verdict.corrupt());
  EXPECT_EQ(verdict.check, core::HealthCheck::kDisplacement);
}

TEST(HealthMonitor, ThermallyImplausibleStepIsDegraded) {
  core::SdSimulation sim(small_config());
  core::StepHealthMonitor monitor(sim);
  // A very stiff spectrum makes the thermal step scale tiny, so half a
  // clamp length is wildly improbable yet still below the hard bound.
  monitor.set_bounds({1e12, 2e12});
  EXPECT_GT(monitor.thermal_scale(), 0.0);
  std::vector<double> u(sim.dof(), 0.0);
  u[1] = 0.5 * sim.max_step_length() / sim.dt();
  sim.system().advance(u, sim.dt(), 0.0);
  const auto verdict = monitor.check(core::StepRecord{});
  EXPECT_EQ(verdict.state, core::HealthState::kDegraded);
  EXPECT_EQ(verdict.check, core::HealthCheck::kDisplacement);
}

TEST(HealthMonitor, DeepOverlapIsCorruptShallowIsDegraded) {
  core::SdSimulation sim(small_config());
  core::StepHealthMonitor monitor(sim);
  auto positions = sim.system().positions();
  const auto radii = sim.system().radii();
  const double sum = radii[0] + radii[1];
  const sd::Vec3 base = positions[1];

  // Surfaces interpenetrating by half the pair radius: unusable state.
  positions[0] = sim.system().box().wrap(base + sd::Vec3{0.5 * sum, 0.0, 0.0});
  monitor.rebase();  // position edits are not integrator motion
  auto verdict = monitor.check(core::StepRecord{});
  EXPECT_TRUE(verdict.corrupt());
  EXPECT_EQ(verdict.check, core::HealthCheck::kOverlap);

  // A 10% depth is suspicious but finite and shallow: degraded. Pick
  // a direction where the spot next to particle 1 is clear of every
  // other particle, so the shallow pair is the system's worst overlap.
  const sd::Vec3 dirs[] = {{1.0, 0.0, 0.0}, {-1.0, 0.0, 0.0},
                           {0.0, 1.0, 0.0}, {0.0, -1.0, 0.0},
                           {0.0, 0.0, 1.0}, {0.0, 0.0, -1.0}};
  bool placed = false;
  for (const auto& dir : dirs) {
    const sd::Vec3 candidate =
        sim.system().box().wrap(base + 0.95 * sum * dir);
    bool clear = true;
    for (std::size_t k = 2; k < sim.system().size(); ++k) {
      const double d =
          sim.system().box().min_image(candidate, positions[k]).norm();
      if (d < radii[0] + radii[k]) {
        clear = false;
        break;
      }
    }
    if (clear) {
      positions[0] = candidate;
      placed = true;
      break;
    }
  }
  ASSERT_TRUE(placed) << "no clear direction next to particle 1";
  monitor.rebase();
  verdict = monitor.check(core::StepRecord{});
  EXPECT_EQ(verdict.state, core::HealthState::kDegraded);
  EXPECT_EQ(verdict.check, core::HealthCheck::kOverlap);
}

TEST(HealthMonitor, GuessDivergenceVerdicts) {
  core::SdSimulation sim(small_config());
  core::StepHealthMonitor monitor(sim);

  core::StepRecord record;
  record.guess_rel_error = -1.0;  // "no guess" sentinel must pass
  EXPECT_TRUE(monitor.check(record).ok());

  record.guess_rel_error = 2.0;  // worse than a zero guess
  auto verdict = monitor.check(record);
  EXPECT_EQ(verdict.state, core::HealthState::kDegraded);
  EXPECT_EQ(verdict.check, core::HealthCheck::kGuessDivergence);

  record.guess_rel_error = std::numeric_limits<double>::quiet_NaN();
  verdict = monitor.check(record);
  EXPECT_TRUE(verdict.corrupt());
  EXPECT_EQ(verdict.check, core::HealthCheck::kGuessDivergence);
}

// ---------------------------------------------------------------------
// ResilientRunner policy (compiled in every build: the post-step hook
// models corruption without any fault-injection machinery).

TEST(ResilientRunner, FaultFreeRunMatchesBareStepper) {
  const auto config = small_config();
  core::SdSimulation bare_sim(config);
  core::MrhsAlgorithm bare_alg(bare_sim, {.rhs = 4});
  const auto bare_stats = bare_alg.run(12);

  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  core::ResilientRunner runner(sim, alg);
  const auto stats = runner.run(12);

  EXPECT_EQ(stats.steps.size(), bare_stats.steps.size());
  EXPECT_EQ(stats.rollbacks, 0u);
  EXPECT_EQ(stats.degradations, 0u);
  EXPECT_FALSE(stats.resilience_gave_up);
  EXPECT_EQ(runner.level(), core::DegradationLevel::kFull);
  expect_bitwise_equal(positions_of(sim), positions_of(bare_sim));
}

TEST(ResilientRunner, TransientCorruptionRollsBackBitwise) {
  const auto config = small_config();
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
  // First rollback at an epoch is a plain retry — no ladder descent.
  EXPECT_EQ(stats.degradations, 0u);
  EXPECT_FALSE(stats.resilience_gave_up);
  EXPECT_EQ(stats.steps.size(), 12u);
  EXPECT_EQ(runner.level(), core::DegradationLevel::kFull);
  // The replayed trajectory is bitwise the fault-free one.
  expect_bitwise_equal(positions_of(sim), positions_of(clean_sim));
}

TEST(ResilientRunner, RepeatedCorruptionEscalatesThenPromotes) {
  core::SdSimulation sim(small_config());
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  core::ResilienceOptions options;
  options.snapshot_every = 4;
  core::ResilientRunner runner(sim, alg, options);
  int poisons = 0;
  runner.set_post_step_hook([&](std::size_t step) {
    if (step == 5 && poisons < 2) {
      ++poisons;
      sim.system().positions()[0].x =
          std::numeric_limits<double>::quiet_NaN();
    }
  });
  const auto stats = runner.run(24);

  EXPECT_EQ(poisons, 2);
  EXPECT_EQ(stats.rollbacks, 2u);
  // The second rollback within one snapshot epoch descends one rung...
  EXPECT_EQ(stats.degradations, 1u);
  // ...and the clean streak afterwards promotes back to full MRHS.
  EXPECT_GE(stats.recovery_promotions, 1u);
  EXPECT_EQ(runner.level(), core::DegradationLevel::kFull);
  EXPECT_FALSE(stats.resilience_gave_up);
  EXPECT_EQ(stats.steps.size(), 24u);
}

TEST(ResilientRunner, PersistentCorruptionExhaustsBudgetAndParks) {
  core::SdSimulation sim(small_config());
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  core::ResilienceOptions options;
  options.max_rollbacks = 3;
  core::ResilientRunner runner(sim, alg, options);
  runner.set_post_step_hook([&](std::size_t) {
    sim.system().positions()[0].x = std::numeric_limits<double>::quiet_NaN();
  });
  const auto pristine = positions_of(sim);
  const auto stats = runner.run(16);

  EXPECT_TRUE(stats.resilience_gave_up);
  EXPECT_TRUE(runner.gave_up());
  EXPECT_EQ(stats.rollbacks, 3u);
  // Parked at the last good snapshot — step 0, since every step is
  // corrupt — bitwise: no corrupt or half-restored state survives.
  EXPECT_EQ(runner.snapshot_step(), 0u);
  expect_bitwise_equal(positions_of(sim), pristine);
  // A given-up runner refuses further work.
  const auto more = runner.run(4);
  EXPECT_TRUE(more.resilience_gave_up);
  EXPECT_TRUE(more.steps.empty());
}

TEST(ResilientRunner, PersistentCorruptionGivesUpOnLastRung) {
  core::SdSimulation sim(small_config());
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  core::ResilientRunner runner(sim, alg);  // default budget of 8
  runner.set_post_step_hook([&](std::size_t) {
    sim.system().positions()[0].x = std::numeric_limits<double>::quiet_NaN();
  });
  const auto pristine = positions_of(sim);
  const auto stats = runner.run(16);

  // Replay, then one rung per repeat strike, then the repeat strike on
  // the last rung gives up with budget to spare.
  EXPECT_TRUE(stats.resilience_gave_up);
  EXPECT_EQ(stats.rollbacks, 5u);
  EXPECT_EQ(stats.degradations, 3u);
  EXPECT_EQ(runner.level(), core::DegradationLevel::kShrunkDt);
  EXPECT_EQ(runner.snapshot_step(), 0u);
  expect_bitwise_equal(positions_of(sim), pristine);
}

// The scalar rungs' Chebyshev interval rolls back with the snapshot.
// With snapshots every 10 steps and recalibration every 16, a replay
// from step 10 must step with the interval the first pass had there
// (calibrated at step 0), not the one the abandoned pass recalibrated
// at step 16.
TEST(ResilientRunner, ScalarRungReplayIsBitwise) {
  const auto run_with = [](std::vector<std::size_t> strikes) {
    core::SdSimulation sim(small_config());
    core::MrhsAlgorithm alg(sim, {.rhs = 4});
    core::ResilienceOptions options;
    options.snapshot_every = 10;
    core::ResilientRunner runner(sim, alg, options);
    runner.set_post_step_hook([&](std::size_t step) {
      if (!strikes.empty() && strikes.front() == step) {
        strikes.erase(strikes.begin());
        sim.system().positions()[0].x =
            std::numeric_limits<double>::quiet_NaN();
      }
    });
    const auto stats = runner.run(20);
    EXPECT_TRUE(strikes.empty());
    // Three strikes at step 3: replay, halve m, scalar fallback.
    EXPECT_EQ(stats.degradations, 2u);
    EXPECT_EQ(runner.level(), core::DegradationLevel::kScalarFallback);
    EXPECT_FALSE(stats.resilience_gave_up);
    EXPECT_EQ(stats.steps.size(), 20u);
    return positions_of(sim);
  };
  expect_bitwise_equal(run_with({3, 3, 3, 18}), run_with({3, 3, 3}));
}

// ---------------------------------------------------------------------
// Checkpoint carry-over of the resilience counters.

TEST(RunStatsSummary, RoundTripsThroughCheckpoint) {
  core::SdSimulation sim(small_config());
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  auto ck = core::capture_checkpoint(sim, alg);
  ck.stats.solver_status = solver::SolveStatus::kRecovered;
  ck.stats.guess_fallbacks = 1;
  ck.stats.rollbacks = 3;
  ck.stats.degradations = 2;
  ck.stats.recovery_promotions = 1;
  ck.stats.resilience_gave_up = true;

  const std::string path = ::testing::TempDir() + "resilience_ck.bin";
  ASSERT_TRUE(core::save_checkpoint(ck, path).is_ok());
  core::Checkpoint loaded;
  ASSERT_TRUE(core::load_checkpoint(path, loaded).is_ok());
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());

  EXPECT_EQ(loaded.stats.solver_status, solver::SolveStatus::kRecovered);
  EXPECT_EQ(loaded.stats.guess_fallbacks, 1u);
  EXPECT_EQ(loaded.stats.rollbacks, 3u);
  EXPECT_EQ(loaded.stats.degradations, 2u);
  EXPECT_EQ(loaded.stats.recovery_promotions, 1u);
  EXPECT_TRUE(loaded.stats.resilience_gave_up);

  core::RunStats stats;
  stats.rollbacks = 1;
  loaded.stats.apply_to(stats);
  EXPECT_EQ(stats.rollbacks, 4u);
  EXPECT_EQ(stats.solver_status, solver::SolveStatus::kRecovered);
  EXPECT_TRUE(stats.resilience_gave_up);
}

// ---------------------------------------------------------------------
// Chaos registry + injection sites. These need the registry compiled
// in (Debug / sanitizer presets / -DMRHS_FAULTS=ON).

#if MRHS_FAULTS

class FaultRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override { util::FaultRegistry::instance().reset(); }
  void TearDown() override { util::FaultRegistry::instance().reset(); }

  static util::FaultSpec spec(const char* site) {
    util::FaultSpec s;
    s.site = site;
    return s;
  }
};

TEST_F(FaultRegistryTest, FiresExactlyOnScheduledHit) {
  auto& registry = util::FaultRegistry::instance();
  auto s = spec("gspmv.apply.nan");
  s.at_hit = 2;
  ASSERT_TRUE(registry.arm(s).is_ok());
  EXPECT_TRUE(registry.any_armed());

  EXPECT_FALSE(registry.fire("gspmv.apply.nan"));
  EXPECT_FALSE(registry.fire("gspmv.apply.nan"));
  EXPECT_TRUE(registry.fire("gspmv.apply.nan"));
  EXPECT_FALSE(registry.fire("gspmv.apply.nan"));
  EXPECT_EQ(registry.hits("gspmv.apply.nan"), 4u);
  EXPECT_EQ(registry.fires("gspmv.apply.nan"), 1u);
  // Unarmed sites never fire but are legal to hit.
  EXPECT_FALSE(registry.fire("cluster.halo.corrupt"));
}

TEST_F(FaultRegistryTest, RejectsUnknownSiteAndBadSpecs) {
  auto& registry = util::FaultRegistry::instance();
  auto bad = spec("no.such.site");
  EXPECT_FALSE(registry.arm(bad).is_ok());
  auto zero = spec("gspmv.apply.nan");
  zero.max_fires = 0;
  EXPECT_FALSE(registry.arm(zero).is_ok());
  EXPECT_FALSE(registry.any_armed());
}

TEST_F(FaultRegistryTest, ProbabilityScheduleIsSeedReproducible) {
  auto& registry = util::FaultRegistry::instance();
  auto run_pattern = [&](std::uint64_t seed) {
    registry.reset();
    auto s = spec("gspmv.apply.nan");
    s.probability = 0.5;
    s.max_fires = -1;
    s.seed = seed;
    EXPECT_TRUE(registry.arm(s).is_ok());
    std::vector<bool> pattern;
    for (int i = 0; i < 200; ++i) {
      pattern.push_back(registry.fire("gspmv.apply.nan"));
    }
    return pattern;
  };
  const auto a = run_pattern(1234);
  const auto b = run_pattern(1234);
  const auto c = run_pattern(4321);
  EXPECT_EQ(a, b);  // bit-for-bit reproducible from the seed
  EXPECT_NE(a, c);  // and actually seed-dependent
  const auto fired = static_cast<std::size_t>(
      std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 60u);
  EXPECT_LT(fired, 140u);
}

TEST_F(FaultRegistryTest, CorruptNanPoisonsExactlyOneElement) {
  auto& registry = util::FaultRegistry::instance();
  auto s = spec("gspmv.apply.nan");
  s.at_hit = 0;
  ASSERT_TRUE(registry.arm(s).is_ok());
  std::vector<double> data(32, 1.0);
  EXPECT_TRUE(
      registry.corrupt_nan("gspmv.apply.nan", data.data(), data.size()));
  std::size_t nans = 0;
  for (double v : data) nans += std::isnan(v) ? 1 : 0;
  EXPECT_EQ(nans, 1u);
  // Spent schedule: the same site does not fire again.
  EXPECT_FALSE(
      registry.corrupt_nan("gspmv.apply.nan", data.data(), data.size()));
}

TEST_F(FaultRegistryTest, GspmvSitePoisonsEngineOutput) {
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(), 100, 17);
  sd::PackingParams packing;
  packing.seed = 17;
  const auto system = sd::pack_particles(std::move(radii), 0.4, packing);
  const auto matrix = sd::AssemblyEngine({}).assemble_full(system).matrix;

  auto s = spec("gspmv.apply.nan");
  s.at_hit = 0;
  ASSERT_TRUE(util::FaultRegistry::instance().arm(s).is_ok());

  const std::size_t m = 4;
  util::StreamRng rng(5);
  sparse::MultiVector x(matrix.cols(), m), y(matrix.rows(), m);
  x.fill_normal(rng);
  const sparse::GspmvEngine engine(matrix, 1);
  engine.apply(x, y);
  std::size_t nans = 0;
  for (std::size_t i = 0; i < y.rows(); ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      nans += std::isnan(y(i, j)) ? 1 : 0;
    }
  }
  EXPECT_EQ(nans, 1u);
}

TEST_F(FaultRegistryTest, HaloTransientCorruptionIsRetried) {
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(), 200, 23);
  sd::PackingParams packing;
  packing.seed = 23;
  const auto system = sd::pack_particles(std::move(radii), 0.45, packing);
  const auto matrix = sd::AssemblyEngine({}).assemble_full(system).matrix;
  const auto part = cluster::partition_coordinate_grid(system, matrix, 4);
  const cluster::DistributedGspmv dist(matrix, part);

  auto s = spec("cluster.halo.corrupt");
  s.at_hit = 0;
  ASSERT_TRUE(util::FaultRegistry::instance().arm(s).is_ok());

  const std::size_t m = 3;
  util::StreamRng rng(9);
  sparse::MultiVector x(matrix.cols(), m), y(matrix.rows(), m),
      y_ref(matrix.rows(), m);
  x.fill_normal(rng);
  ASSERT_TRUE(dist.apply(x, y).is_ok());
  EXPECT_EQ(dist.halo_retries(), 1u);

  // The retried product is the uncorrupted one.
  sparse::gspmv_reference(matrix, x, y_ref);
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < y.rows(); ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      worst = std::max(worst, std::abs(y(i, j) - y_ref(i, j)));
      scale = std::max(scale, std::abs(y_ref(i, j)));
    }
  }
  EXPECT_LT(worst, 1e-12 * scale);
}

TEST_F(FaultRegistryTest, HaloPersistentCorruptionSurfacesAsStatus) {
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(), 150, 29);
  sd::PackingParams packing;
  packing.seed = 29;
  const auto system = sd::pack_particles(std::move(radii), 0.45, packing);
  const auto matrix = sd::AssemblyEngine({}).assemble_full(system).matrix;
  const auto part = cluster::partition_coordinate_grid(system, matrix, 4);

  auto s = spec("cluster.halo.corrupt");
  s.probability = 1.0;  // corrupt every attempt: retries cannot help
  s.max_fires = -1;
  ASSERT_TRUE(util::FaultRegistry::instance().arm(s).is_ok());

  const std::size_t m = 2;
  util::StreamRng rng(13);
  sparse::MultiVector x(matrix.cols(), m), y(matrix.rows(), m);
  x.fill_normal(rng);

  const cluster::DistributedGspmv dist(matrix, part);
  const auto status = dist.apply(x, y);
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), util::StatusCode::kCorruptData);

  // Through the LinearOperator facade the failure is NaN-poisoned and
  // parked in last_error() — never a silently wrong product.
  const cluster::DistributedOperator op(matrix, part);
  sparse::MultiVector y2(matrix.rows(), m);
  op.apply_block(x, y2);
  ASSERT_FALSE(op.last_error().is_ok());
  EXPECT_EQ(op.last_error().code(), util::StatusCode::kCorruptData);
  EXPECT_TRUE(std::isnan(y2(0, 0)));
}

TEST_F(FaultRegistryTest, TruncatedCheckpointWriteIsCaughtOnLoad) {
  core::SdSimulation sim(small_config());
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  const auto ck = core::capture_checkpoint(sim, alg);

  auto s = spec("checkpoint.write.truncate");
  s.at_hit = 0;
  ASSERT_TRUE(util::FaultRegistry::instance().arm(s).is_ok());

  const std::string path = ::testing::TempDir() + "truncated_ck.bin";
  // The truncated write itself "succeeds" (a full disk looks exactly
  // like this); the CRC trailer catches it at load time.
  ASSERT_TRUE(core::save_checkpoint(ck, path).is_ok());
  core::Checkpoint loaded;
  const auto status = core::load_checkpoint(path, loaded);
  std::remove(path.c_str());
  std::remove((path + ".json").c_str());
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.code(), core::StatusCode::kCorruptData);
}

TEST_F(FaultRegistryTest, StepperNanSiteRecoversBitwise) {
  // End-to-end chaos drill, same shape as scripts/check_chaos.py: a
  // one-shot NaN mid-run must cost exactly one rollback and leave the
  // trajectory bitwise identical to a fault-free run.
  const auto config = small_config(97);
  core::SdSimulation clean_sim(config);
  core::MrhsAlgorithm clean_alg(clean_sim, {.rhs = 4});
  core::ResilientRunner clean_runner(clean_sim, clean_alg);
  (void)clean_runner.run(10);

  auto s = spec("stepper.position.nan");
  s.at_hit = 5;
  ASSERT_TRUE(util::FaultRegistry::instance().arm(s).is_ok());

  core::SdSimulation sim(config);
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  core::ResilientRunner runner(sim, alg);
  const auto stats = runner.run(10);

  EXPECT_EQ(util::FaultRegistry::instance().fires("stepper.position.nan"),
            1u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_EQ(stats.degradations, 0u);
  EXPECT_FALSE(stats.resilience_gave_up);
  EXPECT_EQ(stats.steps.size(), 10u);
  expect_bitwise_equal(positions_of(sim), positions_of(clean_sim));
}

TEST_F(FaultRegistryTest, OverlapSiteIsCaughtByHealthMonitor) {
  auto s = spec("stepper.position.overlap");
  s.at_hit = 3;
  ASSERT_TRUE(util::FaultRegistry::instance().arm(s).is_ok());

  core::SdSimulation sim(small_config(101));
  core::MrhsAlgorithm alg(sim, {.rhs = 4});
  core::ResilientRunner runner(sim, alg);
  const auto stats = runner.run(8);

  EXPECT_EQ(util::FaultRegistry::instance().fires("stepper.position.overlap"),
            1u);
  EXPECT_EQ(stats.rollbacks, 1u);
  EXPECT_FALSE(stats.resilience_gave_up);
  EXPECT_EQ(stats.steps.size(), 8u);
}

#else  // !MRHS_FAULTS

TEST(FaultRegistry, CliRefusesFaultsWhenNotCompiledIn) {
  // A chaos run must never silently run fault-free: in builds without
  // the registry, requesting --faults is a hard error.
  util::FaultCli cli;
  util::ArgParser args("test", "test");
  cli.add_to(args);
  const char* argv[] = {"test", "--faults", "stepper.position.nan@1"};
  args.parse(3, argv);
  EXPECT_FALSE(cli.apply().is_ok());
}

#endif  // MRHS_FAULTS

}  // namespace
