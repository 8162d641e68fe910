// Tests for the core contribution: the SD simulation wrapper, the two
// time-stepping algorithms (original vs MRHS), and the cost model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#if __has_include(<malloc.h>)
#include <malloc.h>
#endif

#include "core/mrhs_model.hpp"
#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "core/workloads.hpp"
#include "sparse/multivector.hpp"
#include "util/stats.hpp"

namespace {

using namespace mrhs;

core::SdConfig small_config(std::size_t particles = 150, double phi = 0.4,
                            std::uint64_t seed = 5) {
  core::SdConfig config;
  config.particles = particles;
  config.phi = phi;
  config.seed = seed;
  return config;
}

TEST(SdSimulation, PackedStateIsConsistent) {
  const auto config = small_config();
  core::SdSimulation sim(config);
  EXPECT_EQ(sim.system().size(), config.particles);
  EXPECT_NEAR(sim.system().volume_fraction(), config.phi, 1e-6);
  EXPECT_EQ(sim.system().overlap_count_bruteforce(1e-6), 0u);
  EXPECT_GT(sim.dt(), 0.0);
  EXPECT_EQ(sim.dof(), 3 * config.particles);
  // The equilibrium packing pad leaves real gaps.
  EXPECT_GT(sim.system().min_gap_bruteforce(),
            0.5 * sd::equilibrium_pad(config.phi) * sim.mean_radius());
}

TEST(SdSimulation, AssembleProducesSpdStructure) {
  core::SdSimulation sim(small_config());
  const auto [r, stats] = sim.assemble();
  EXPECT_EQ(r.block_rows(), sim.system().size());
  EXPECT_LT(r.asymmetry(), 1e-12);
  EXPECT_GT(stats.pairs_active, 0u);
}

TEST(SdSimulation, NoiseIsStepKeyed) {
  core::SdSimulation sim(small_config());
  std::vector<double> z1(sim.dof()), z2(sim.dof()), z3(sim.dof());
  sim.noise(0, z1);
  sim.noise(0, z2);
  sim.noise(1, z3);
  EXPECT_EQ(z1, z2);
  EXPECT_NE(z1, z3);
}

TEST(Stepper, OriginalAlgorithmAdvancesSystem) {
  core::SdSimulation sim(small_config());
  core::OriginalAlgorithm alg(sim);
  const auto stats = alg.run(3);
  EXPECT_EQ(stats.steps.size(), 3u);
  EXPECT_EQ(alg.current_step(), 3u);
  EXPECT_GT(sim.system().mean_squared_displacement(), 0.0);
  EXPECT_EQ(sim.system().overlap_count_bruteforce(1e-6), 0u);
  for (const auto& rec : stats.steps) {
    EXPECT_GT(rec.iters_first_solve, 0u);
    EXPECT_GT(rec.iters_second_solve, 0u);
    EXPECT_LT(rec.guess_rel_error, 0.0);  // no guesses in the original
  }
  EXPECT_GT(stats.timers.seconds(core::phase::kChebSingle), 0.0);
  EXPECT_GT(stats.timers.seconds(core::phase::kFirstSolve), 0.0);
}

TEST(Stepper, MrhsReducesFirstSolveIterations) {
  // The headline claim: initial guesses from the augmented solve cut
  // the first-solve iterations (paper Table V: 30-50% reduction).
  core::SdSimulation sim_orig(small_config(150, 0.45, 9));
  core::SdSimulation sim_mrhs(small_config(150, 0.45, 9));
  core::OriginalAlgorithm orig(sim_orig);
  core::MrhsAlgorithm mrhs(sim_mrhs, {.rhs = 8});
  const auto s_orig = orig.run(8);
  const auto s_mrhs = mrhs.run(8);

  double orig_iters = 0.0, mrhs_iters = 0.0;
  for (std::size_t k = 1; k < 8; ++k) {  // step 0 is free in MRHS
    orig_iters += static_cast<double>(s_orig.steps[k].iters_first_solve);
    mrhs_iters += static_cast<double>(s_mrhs.steps[k].iters_first_solve);
  }
  EXPECT_LT(mrhs_iters, 0.85 * orig_iters);
  EXPECT_GT(s_mrhs.block_iterations, 0u);
}

TEST(Stepper, MrhsGuessErrorGrowsLikeSquareRoot) {
  // Paper Fig 5: ||u_k - u'_k||/||u_k|| ~ c * sqrt(k).
  core::SdSimulation sim(small_config(150, 0.45, 13));
  core::MrhsAlgorithm mrhs(sim, {.rhs = 12});
  const auto stats = mrhs.run(12);
  std::vector<double> ks, errs;
  for (std::size_t k = 1; k < stats.steps.size(); ++k) {
    ASSERT_GE(stats.steps[k].guess_rel_error, 0.0);
    ks.push_back(static_cast<double>(k));
    errs.push_back(stats.steps[k].guess_rel_error);
  }
  const auto fit = util::power_law_fit(ks, errs);
  EXPECT_GT(fit.slope, 0.2);
  EXPECT_LT(fit.slope, 0.8);
}

TEST(Stepper, MrhsStepZeroIsFree) {
  core::SdSimulation sim(small_config());
  core::MrhsAlgorithm mrhs(sim, {.rhs = 4});
  const auto stats = mrhs.run(4);
  EXPECT_EQ(stats.steps[0].iters_first_solve, 0u);
  EXPECT_DOUBLE_EQ(stats.steps[0].guess_rel_error, 0.0);
  EXPECT_GT(stats.steps[1].iters_first_solve, 0u);
}

TEST(Stepper, MrhsHandlesPartialFinalChunk) {
  core::SdSimulation sim(small_config());
  core::MrhsAlgorithm mrhs(sim, {.rhs = 4});
  const auto stats = mrhs.run(6);  // one full chunk + one of length 2
  EXPECT_EQ(stats.steps.size(), 6u);
  EXPECT_EQ(mrhs.current_step(), 6u);
  // Step 4 starts the second chunk: free again.
  EXPECT_EQ(stats.steps[4].iters_first_solve, 0u);
}

/// This process's resident set size in KiB (VmRSS in
/// /proc/self/status), or -1 where that file does not exist.
long resident_kib() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      long kib = -1;
      status >> kib;
      return kib;
    }
  }
  return -1;
}

/// Bytes the allocator has handed out and not had back, over every
/// arena and mmapped chunk; -1 without glibc's mallinfo2. Unlike RSS it
/// does not depend on where earlier frees left holes in the heap.
long heap_in_use_bytes() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 info = mallinfo2();
  return static_cast<long>(info.uordblks + info.hblkhd);
#else
  return -1;
#endif
}

TEST(Stepper, MrhsResidentMemoryIsFlatAfterWarmUp) {
  // Once the first chunks have sized every buffer, a chunk must reuse
  // what the last one freed: RSS that keeps growing with steps is
  // memory that grows with work. 500 particles at m = 8 reach the
  // threaded multi-RHS CG passes on a 4-thread operator.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer allocators keep freed memory resident";
#endif
  if (resident_kib() < 0) GTEST_SKIP() << "no /proc/self/status";
  auto config = small_config(500, 0.4, 23);
  config.threads = 4;
  core::SdSimulation sim(config);
  ASSERT_GE(sim.dof() * 8, sparse::kThreadedPassMinEntries);
  core::MrhsAlgorithm mrhs(sim, {.rhs = 8});
  // Warm-up. The first assembly searches the candidate list; once the
  // padded packing relaxes past the list's skin, a burst of re-searches
  // follows (here 1 search through chunk 9, 6 by chunk 11), and the
  // list's buffers grow to their lasting size in it. Later searches
  // reuse them. So the window opens after the first chunk that ends
  // without a search once that burst has begun (chunk 12 here): the
  // same point of the trajectory whatever heap state set-up left.
  std::uint64_t searches = 0;
  for (int chunk = 0;; ++chunk) {
    ASSERT_LT(chunk, 64) << "the candidate list was never searched again";
    mrhs.run(8);
    const std::uint64_t now = sim.engine().pattern_rebuilds();
    if (searches > 1 && now == searches) break;
    searches = now;
  }
  const long warm = resident_kib();
  const long warm_heap = heap_in_use_bytes();
  mrhs.run(16 * 8);
  const long grown = resident_kib() - warm;
  // Measured after this warm-up: RSS grows 0 KiB and the heap in use
  // 752 bytes over the window (4 threads, AVX-512 build). A window that
  // catches the burst sees RSS grow about 336 KiB.
  EXPECT_LT(grown, 256) << "RSS grew " << grown << " KiB over 16 chunks";
  // RSS hides a small leak until it has filled the heap's free holes;
  // the allocator's count does not. 64 KiB over 128 steps fails any
  // leak of 0.5 KiB per step.
  if (warm_heap >= 0) {
    const long heap_grown = heap_in_use_bytes() - warm_heap;
    EXPECT_LT(heap_grown, 64 * 1024)
        << "heap in use grew " << heap_grown << " bytes over 16 chunks";
  }
}

TEST(Stepper, StepsDoNotCauseDeepOverlaps) {
  // Discrete Brownian steps can graze (the lubrication gap floor
  // handles contacts), but no deep interpenetration may occur.
  core::SdSimulation sim(small_config(120, 0.5, 17));
  core::MrhsAlgorithm mrhs(sim, {.rhs = 6});
  mrhs.run(6);
  EXPECT_GT(sim.system().min_gap_bruteforce(),
            -0.01 * sim.mean_radius());
}

TEST(Stepper, TrajectoriesStatisticallyEquivalent) {
  // Same noise stream, same start: the MRHS trajectory tracks the
  // original to within solver tolerance effects.
  const auto config = small_config(100, 0.35, 19);
  core::SdSimulation sim_a(config), sim_b(config);
  core::OriginalAlgorithm orig(sim_a);
  core::MrhsAlgorithm mrhs(sim_b, {.rhs = 4});
  orig.run(4);
  mrhs.run(4);
  double worst = 0.0;
  for (std::size_t i = 0; i < sim_a.system().size(); ++i) {
    const auto da = sim_a.system().unwrapped_displacement(i);
    const auto db = sim_b.system().unwrapped_displacement(i);
    worst = std::max(worst, (da - db).norm());
  }
  // Displacements are ~1e-3 of a radius per step; the two algorithms
  // agree to a small fraction of that.
  EXPECT_LT(worst, 0.05 * sim_a.config().rms_step_fraction);
}

TEST(MrhsModel, StepTimeHasInteriorMinimum) {
  core::MrhsCostModel model;
  model.gspmv.block_rows = 1e5;
  model.gspmv.nonzero_blocks = 2.5e6;   // nnzb/nb = 25
  model.gspmv.bandwidth = 23e9;
  model.gspmv.flops = 45e9;
  model.iters_no_guess = 162;
  model.iters_first_guess = 80;
  model.iters_second = 63;
  model.chebyshev_order = 30;

  const std::size_t m_opt = model.optimal_m(64);
  EXPECT_GT(m_opt, 1u);
  EXPECT_LT(m_opt, 64u);
  // The paper's conclusion: m_optimal is near the crossover m_s.
  const std::size_t m_s = model.crossover_m(64);
  EXPECT_NEAR(static_cast<double>(m_opt), static_cast<double>(m_s), 6.0);
  // The minimum beats m = 1 (using MRHS helps at all).
  EXPECT_LT(model.step_time(m_opt), model.step_time(1));
}

TEST(MrhsModel, BandwidthAndComputeEstimatesBracketPrediction) {
  core::MrhsCostModel model;
  model.gspmv.block_rows = 1e4;
  model.gspmv.nonzero_blocks = 2.5e5;
  model.gspmv.bandwidth = 20e9;
  model.gspmv.flops = 40e9;
  model.iters_no_guess = 100;
  model.iters_first_guess = 50;
  model.iters_second = 40;
  for (std::size_t m : {1u, 4u, 16u, 48u}) {
    const double t = model.step_time(m);
    EXPECT_GE(t + 1e-18, model.step_time_bandwidth_only(m));
    EXPECT_GE(t + 1e-18, model.step_time_compute_only(m));
  }
}

TEST(Workloads, SuiteSparsitiesAreOrdered) {
  // The actual Table I check runs in the bench; this is a scaled-down
  // structural test: increasing cutoffs produce increasing nnzb/nb.
  auto suite = core::paper_matrix_suite(250, 3);
  ASSERT_EQ(suite.size(), 3u);
  double prev = 0.0;
  for (const auto& spec : suite) {
    const auto matrix = core::make_sd_matrix(spec);
    EXPECT_EQ(matrix.block_rows(), 250u);
    EXPECT_GT(matrix.blocks_per_row(), prev);
    prev = matrix.blocks_per_row();
  }
}

}  // namespace
