// Threaded stress tests for the shared-memory hot paths: parallel
// GSPMV, the multi-RHS CG, the perf probes, and the obs layer, all
// hammered from concurrent std::threads.
//
// This test is the payload of the `tsan` preset (MRHS_TSAN=ON,
// MRHS_OPENMP=OFF): on the std::thread backend every worker is a
// pthread ThreadSanitizer models natively, so the *same kernel
// bodies* that run under OpenMP in production are checked for data
// races without libgomp false positives. It also runs (as a plain
// correctness test) in every other configuration.
//
// Regression notes on races this suite pins down:
//  * GspmvEngine::apply — workers write disjoint block-row ranges of
//    y (`parts_` is a partition of [0, block_rows)); the engine itself
//    is read-only during apply, so one engine may serve many caller
//    threads concurrently as long as their y targets differ.
//  * GspmvEngine::record_metrics — obs counters are relaxed atomics
//    behind function-local-static handles (thread-safe magic-static
//    init); concurrent applies with metrics enabled must not race.
//  * perf::measure_stream_bandwidth — the triad workers each stream a
//    disjoint slab of a/b/c, and the timing state (WallTimer, `best`)
//    lives on the calling thread outside the region.
//  * obs::TraceRecorder / MetricsRegistry — events append under a
//    mutex, metric values are atomics, and snapshot/export may run
//    concurrently with writers.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "perf/machine.hpp"
#include "solver/block_cg.hpp"
#include "solver/operator.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/gspmv.hpp"
#include "sparse/kernel_dispatch.hpp"
#include "sparse/multivector.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;

/// Run `fn(worker)` on `n` std::threads and join them all.
void run_workers(int n, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) threads.emplace_back([&fn, w] { fn(w); });
  for (std::thread& t : threads) t.join();
}

/// Scoped enable of both obs subsystems (restores disabled state).
struct ObsOn {
  ObsOn() {
    obs::TraceRecorder::instance().enable();
    obs::MetricsRegistry::instance().enable();
  }
  ~ObsOn() {
    obs::MetricsRegistry::instance().disable();
    obs::TraceRecorder::instance().disable();
    obs::TraceRecorder::instance().clear();
    obs::MetricsRegistry::instance().reset();
  }
};

TEST(ThreadSafety, ParallelBackendRunsAllTids) {
  std::atomic<int> hits{0};
  std::vector<std::atomic<int>> per_tid(8);
  util::parallel_regions(8, [&](int tid) {
    per_tid[static_cast<std::size_t>(tid)].fetch_add(1);
    hits.fetch_add(1);
  });
  // The OpenMP runtime may deliver fewer workers than requested; the
  // std::thread backend always delivers all of them. Either way no
  // tid may run twice and writes must be visible after the barrier.
  EXPECT_GE(hits.load(), 1);
  EXPECT_LE(hits.load(), 8);
  for (const auto& c : per_tid) EXPECT_LE(c.load(), 1);
}

TEST(ThreadSafety, ParallelForCoversRangeExactlyOnce) {
  constexpr std::ptrdiff_t kN = 10'000;
  std::vector<int> touched(kN, 0);
  util::parallel_for(4, 0, kN,
                     [&](std::ptrdiff_t i) { touched[static_cast<std::size_t>(i)] += 1; });
  for (std::ptrdiff_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[static_cast<std::size_t>(i)], 1) << "index " << i;
  }
}

TEST(ThreadSafety, SharedEngineConcurrentApplies) {
  ObsOn obs_on;  // metrics path (record_metrics) must be race-free too
  const auto a = sparse::make_random_bcrs(96, 6.0, /*seed=*/11,
                                          /*symmetric=*/true);
  const sparse::GspmvEngine engine(a, /*threads=*/2);
  constexpr std::size_t kM = 8;

  // Reference result, computed single-threaded.
  sparse::MultiVector x(a.cols(), kM), y_ref(a.rows(), kM);
  util::StreamRng rng(3);
  x.fill_normal(rng);
  sparse::gspmv_reference(a, x, y_ref);

  run_workers(4, [&](int) {
    sparse::MultiVector y(a.rows(), kM);
    for (int rep = 0; rep < 25; ++rep) {
      engine.apply(x, y, sparse::GspmvKernel::kAuto);
    }
    for (std::size_t i = 0; i < a.rows(); ++i) {
      for (std::size_t j = 0; j < kM; ++j) {
        ASSERT_NEAR(y(i, j), y_ref(i, j), 1e-10);
      }
    }
  });
}

TEST(ThreadSafety, PerThreadEnginesSharedMatrix) {
  const auto a = sparse::make_random_bcrs(64, 5.0, /*seed=*/29,
                                          /*symmetric=*/true);
  run_workers(4, [&](int w) {
    // Each worker builds its own engine (partitioning the shared,
    // immutable matrix) and drives the internally-parallel apply.
    const sparse::GspmvEngine engine(a, /*threads=*/2);
    sparse::MultiVector x(a.cols(), 4), y(a.rows(), 4);
    util::StreamRng rng(100 + static_cast<std::uint64_t>(w));
    x.fill_normal(rng);
    for (int rep = 0; rep < 10; ++rep) {
      engine.apply(x, y, sparse::GspmvKernel::kAuto);
    }
  });
}

TEST(ThreadSafety, ConcurrentBlockCgSolves) {
  ObsOn obs_on;
  const auto a = sparse::make_random_bcrs(48, 4.0, /*seed=*/5,
                                          /*symmetric=*/true);
  solver::BcrsOperator op(a, /*threads=*/2);
  run_workers(3, [&](int w) {
    const std::size_t m = 4;
    sparse::MultiVector b(a.rows(), m), x(a.rows(), m);
    util::StreamRng rng(7 + static_cast<std::uint64_t>(w));
    b.fill_normal(rng);
    solver::BlockCgOptions opts;
    opts.tol = 1e-8;
    opts.max_iters = 400;
    const auto result = solver::block_conjugate_gradient(op, b, x, opts);
    EXPECT_TRUE(solver::solve_succeeded(result.status));
    for (const double rr : result.relative_residuals) {
      EXPECT_LT(rr, 1e-6);
    }
  });
}

TEST(ThreadSafety, MachineProbesConcurrent) {
  // Two concurrent bandwidth probes (each internally parallel) plus a
  // kernel-flops probe: the timing state of one must not leak into the
  // other.
  run_workers(2, [&](int w) {
    perf::StreamOptions stream;
    stream.elements = 1 << 14;
    stream.repetitions = 2;
    stream.threads = 2;
    const double bw = perf::measure_stream_bandwidth(stream);
    EXPECT_GT(bw, 0.0);
    if (w == 0) {
      perf::KernelFlopsOptions kern;
      kern.block_rows = 32;
      kern.blocks_per_row = 4;
      kern.min_seconds = 0.01;
      EXPECT_GT(perf::measure_kernel_flops(8, kern), 0.0);
    }
  });
}

TEST(ThreadSafety, DispatchInitAndSelectConcurrent) {
  // The dispatch table is a magic static whose constructor runs
  // __builtin_cpu_init(); racing first-callers (and concurrent
  // applies through select()) must be clean under TSan. The quick
  // machine-params cache races its first probe the same way.
  const auto a = sparse::make_random_bcrs(48, 4.0, /*seed=*/23);
  sparse::MultiVector x(a.cols(), 8);
  util::StreamRng rng(5);
  x.fill_normal(rng);
  run_workers(4, [&](int w) {
    const auto& d = sparse::kernels::Dispatch::instance();
    EXPECT_TRUE(d.available(sparse::kernels::Isa::kScalar));
    EXPECT_TRUE(d.available(d.select(8).isa));
    const sparse::GspmvEngine engine(a, /*threads=*/1);
    sparse::MultiVector y(a.rows(), 8);
    engine.apply(x, y, sparse::GspmvKernel::kAuto);
    if (w == 0) {
      EXPECT_FALSE(d.describe().empty());
    }
  });
}

TEST(ThreadSafety, MachineQuickCacheConcurrent) {
  // set_machine_quick vs concurrent readers: the mutex-guarded cache
  // must serialize the writes and every reader must see a coherent
  // (bandwidth, flops) pair.
  run_workers(3, [&](int w) {
    if (w == 0) {
      perf::MachineParams params;
      params.bandwidth = 30e9;
      params.flops = 40e9;
      perf::set_machine_quick(params);
    } else {
      const auto seen = perf::machine_quick_if_probed();
      if (seen.has_value()) {
        EXPECT_GT(seen->bandwidth, 0.0);
        EXPECT_GT(seen->flops, 0.0);
      }
    }
  });
  const auto final_params = perf::machine_quick_if_probed();
  ASSERT_TRUE(final_params.has_value());
  EXPECT_GT(final_params->bandwidth, 0.0);
}

TEST(ThreadSafety, ObsLayerConcurrentWritersAndReaders) {
  ObsOn obs_on;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    // Snapshot/export concurrently with the writers below.
    while (!stop.load(std::memory_order_relaxed)) {
      const auto snap = obs::MetricsRegistry::instance().snapshot();
      (void)snap;
      const auto events = obs::TraceRecorder::instance().events();
      (void)events;
    }
  });

  run_workers(4, [&](int) {
    for (int i = 0; i < 500; ++i) {
      OBS_SPAN("thread_safety.span");
      OBS_COUNTER_ADD("thread_safety.counter", 1);
      OBS_GAUGE_SET("thread_safety.gauge", i);
      OBS_HISTOGRAM_OBSERVE("thread_safety.hist", i,
                            obs::exponential_buckets(1.0, 2.0, 8));
      OBS_INSTANT("thread_safety.instant");
    }
  });
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_DOUBLE_EQ(snap.counters.at("thread_safety.counter"), 4 * 500.0);
  EXPECT_EQ(snap.histograms.at("thread_safety.hist").total, 4u * 500u);
  // 4 writers x 500 spans + 500 instants each, all recorded.
  EXPECT_EQ(obs::TraceRecorder::instance().size(), 4u * 500u * 2u);
}

TEST(ThreadSafety, ConcurrentSpmvSingleColumn) {
  const auto a = sparse::make_random_bcrs(80, 5.0, /*seed=*/17,
                                          /*symmetric=*/false);
  const sparse::GspmvEngine engine(a, /*threads=*/2);
  std::vector<double> x(a.cols()), y_ref(a.rows());
  util::StreamRng rng(9);
  rng.fill_normal(x);
  sparse::spmv_reference(a, x, y_ref);

  run_workers(3, [&](int) {
    std::vector<double> y(a.rows());
    for (int rep = 0; rep < 20; ++rep) engine.apply(x, y);
    for (std::size_t i = 0; i < a.rows(); ++i) {
      ASSERT_NEAR(y[i], y_ref[i], 1e-10);
    }
  });
}

}  // namespace
