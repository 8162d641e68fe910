// Tests for src/obs: span nesting/ordering, histogram bucket edges,
// JSON validity of the Chrome-trace / JSONL / metrics exporters,
// metrics snapshot round-trip, and the stepper integration (the
// expected span names appear for one SD step).
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <sstream>
#include <string>

#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "obs/obs.hpp"
#include "json_validator.hpp"

namespace {

using namespace mrhs;

using JsonValidator = mrhs::testing::JsonValidator;

// Fresh, enabled recorder/registry per test; disabled afterwards so
// other suites in this binary see the default-off state.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TraceRecorder::instance().clear();
    obs::TraceRecorder::instance().enable();
    obs::MetricsRegistry::instance().reset();
    obs::MetricsRegistry::instance().enable();
  }
  void TearDown() override {
    obs::TraceRecorder::instance().disable();
    obs::TraceRecorder::instance().clear();
    obs::MetricsRegistry::instance().disable();
    obs::MetricsRegistry::instance().reset();
  }
};

TEST_F(ObsTest, SpanNestingAndOrdering) {
  {
    OBS_SPAN_VAR(outer, "outer");
    outer.arg("k", 1.0);
    {
      OBS_SPAN("inner");
    }
  }
  const auto events = obs::TraceRecorder::instance().events();
  ASSERT_EQ(events.size(), 2u);
  // Complete events are recorded at scope exit: inner closes first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  const auto& inner = events[0];
  const auto& outer = events[1];
  // Containment: the inner span starts no earlier and ends no later.
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  EXPECT_GE(inner.dur_us, 0.0);
  ASSERT_EQ(outer.args.size(), 1u);
  EXPECT_EQ(outer.args[0].first, "k");
  EXPECT_DOUBLE_EQ(outer.args[0].second, 1.0);
}

TEST_F(ObsTest, SpansAreSkippedWhenDisabled) {
  obs::TraceRecorder::instance().disable();
  {
    OBS_SPAN("invisible");
    OBS_INSTANT("also invisible");
  }
  EXPECT_EQ(obs::TraceRecorder::instance().size(), 0u);
}

TEST_F(ObsTest, HistogramBucketEdges) {
  obs::Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);  // <= 1       -> bucket 0
  h.observe(1.0);  // == bound   -> bucket 0 (v <= bounds[i])
  h.observe(1.5);  // <= 2       -> bucket 1
  h.observe(2.0);  // == bound   -> bucket 1
  h.observe(4.0);  // == last    -> bucket 2
  h.observe(9.0);  // overflow   -> bucket 3
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
  EXPECT_EQ(h.total_count(), 6u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 9.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);

  EXPECT_THROW(obs::Histogram({}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST_F(ObsTest, HistogramQuantileEstimates) {
  // 100 observations spread uniformly over (0, 10] with bucket width 1:
  // the interpolated quantile should land within one bucket of truth.
  obs::HistogramSnapshot hs;
  hs.bounds = obs::linear_buckets(1.0, 1.0, 10);
  hs.counts.assign(11, 10);
  hs.counts.back() = 0;  // no overflow
  hs.total = 100;
  hs.min = 0.05;
  hs.max = 10.0;

  EXPECT_DOUBLE_EQ(hs.quantile(0.0), hs.min);
  EXPECT_DOUBLE_EQ(hs.quantile(1.0), hs.max);
  EXPECT_NEAR(hs.quantile(0.50), 5.0, 1.0);
  EXPECT_NEAR(hs.quantile(0.95), 9.5, 1.0);
  EXPECT_NEAR(hs.quantile(0.99), 9.9, 1.0);
  // Monotone in q.
  EXPECT_LE(hs.quantile(0.50), hs.quantile(0.95));
  EXPECT_LE(hs.quantile(0.95), hs.quantile(0.99));
  // Out-of-range q clamps rather than extrapolating.
  EXPECT_DOUBLE_EQ(hs.quantile(-0.5), hs.min);
  EXPECT_DOUBLE_EQ(hs.quantile(1.5), hs.max);

  const obs::HistogramSnapshot empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
}

TEST_F(ObsTest, HistogramQuantileSingleBucket) {
  // All mass in one bucket: every quantile stays inside [min, max].
  obs::HistogramSnapshot hs;
  hs.bounds = {1.0, 2.0};
  hs.counts = {0, 7, 0};
  hs.total = 7;
  hs.min = 1.2;
  hs.max = 1.9;
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double v = hs.quantile(q);
    EXPECT_GE(v, hs.min) << "q=" << q;
    EXPECT_LE(v, hs.max) << "q=" << q;
  }
}

TEST_F(ObsTest, MetricsJsonExportsPercentiles) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.enable();
  for (int i = 1; i <= 100; ++i) {
    OBS_HISTOGRAM_OBSERVE("qtest.latency", static_cast<double>(i),
                          obs::linear_buckets(10.0, 10.0, 10));
  }
  std::ostringstream os;
  reg.write_json(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonValidator::valid(text)) << text;
  EXPECT_NE(text.find("\"p50\""), std::string::npos);
  EXPECT_NE(text.find("\"p95\""), std::string::npos);
  EXPECT_NE(text.find("\"p99\""), std::string::npos);

  const auto snap = reg.snapshot();
  const auto it = snap.histograms.find("qtest.latency");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_NEAR(it->second.quantile(0.50), 50.0, 10.0);
  EXPECT_NEAR(it->second.quantile(0.95), 95.0, 10.0);
  EXPECT_NEAR(it->second.quantile(0.99), 99.0, 10.0);
}

TEST_F(ObsTest, BucketBuilders) {
  EXPECT_EQ(obs::linear_buckets(0.0, 2.0, 3),
            (std::vector<double>{0.0, 2.0, 4.0}));
  EXPECT_EQ(obs::exponential_buckets(1.0, 2.0, 4),
            (std::vector<double>{1.0, 2.0, 4.0, 8.0}));
}

TEST_F(ObsTest, ChromeTraceExportIsValidJson) {
  {
    OBS_SPAN_VAR(span, "phase \"quoted\"\n");  // exercises escaping
    span.arg("m", 8.0);
  }
  OBS_INSTANT("marker");
  std::ostringstream os;
  obs::TraceRecorder::instance().write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonValidator::valid(text)) << text;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(text.find("\\\"quoted\\\""), std::string::npos);
}

TEST_F(ObsTest, JsonlExportIsValidPerLine) {
  {
    OBS_SPAN("a");
  }
  {
    OBS_SPAN("b");
  }
  std::ostringstream os;
  obs::TraceRecorder::instance().write_jsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(JsonValidator::valid(line)) << line;
    ++count;
  }
  EXPECT_EQ(count, 2u);
}

TEST_F(ObsTest, EmptyExportsAreValidJson) {
  std::ostringstream trace, metrics;
  obs::TraceRecorder::instance().write_chrome_trace(trace);
  obs::MetricsRegistry::instance().write_json(metrics);
  EXPECT_TRUE(JsonValidator::valid(trace.str())) << trace.str();
  EXPECT_TRUE(JsonValidator::valid(metrics.str())) << metrics.str();
}

TEST_F(ObsTest, MetricsSnapshotRoundTrip) {
  OBS_COUNTER_ADD("test.counter", 2);
  OBS_COUNTER_ADD("test.counter", 3);
  OBS_GAUGE_SET("test.gauge", 19.5);
  OBS_HISTOGRAM_OBSERVE("test.hist", 3.0, obs::linear_buckets(1.0, 1.0, 4));
  OBS_HISTOGRAM_OBSERVE("test.hist", 99.0, obs::linear_buckets(1.0, 1.0, 4));

  const auto snap = obs::MetricsRegistry::instance().snapshot();
  ASSERT_TRUE(snap.counters.contains("test.counter"));
  EXPECT_DOUBLE_EQ(snap.counters.at("test.counter"), 5.0);
  ASSERT_TRUE(snap.gauges.contains("test.gauge"));
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.gauge"), 19.5);
  ASSERT_TRUE(snap.histograms.contains("test.hist"));
  const auto& hist = snap.histograms.at("test.hist");
  EXPECT_EQ(hist.bounds, (std::vector<double>{1.0, 2.0, 3.0, 4.0}));
  ASSERT_EQ(hist.counts.size(), 5u);
  EXPECT_EQ(hist.counts[2], 1u);  // 3.0 -> bucket with bound 3
  EXPECT_EQ(hist.counts[4], 1u);  // 99.0 -> overflow
  EXPECT_EQ(hist.total, 2u);
  EXPECT_DOUBLE_EQ(hist.sum, 102.0);
  EXPECT_DOUBLE_EQ(hist.min, 3.0);
  EXPECT_DOUBLE_EQ(hist.max, 99.0);

  // The JSON export is valid and carries the same values.
  std::ostringstream os;
  obs::MetricsRegistry::instance().write_json(os);
  const std::string text = os.str();
  EXPECT_TRUE(JsonValidator::valid(text)) << text;
  EXPECT_NE(text.find("\"test.counter\": 5"), std::string::npos);
  EXPECT_NE(text.find("\"test.gauge\": 19.5"), std::string::npos);
  EXPECT_NE(text.find("\"count\": 2"), std::string::npos);

  // reset() zeroes in place; the cached handles in the macros above
  // must still be valid on the next observation.
  obs::MetricsRegistry::instance().reset();
  const auto zeroed = obs::MetricsRegistry::instance().snapshot();
  EXPECT_DOUBLE_EQ(zeroed.counters.at("test.counter"), 0.0);
  EXPECT_EQ(zeroed.histograms.at("test.hist").total, 0u);
  OBS_COUNTER_ADD("test.counter", 1);
  EXPECT_DOUBLE_EQ(obs::MetricsRegistry::instance()
                       .snapshot()
                       .counters.at("test.counter"),
                   1.0);
}

TEST_F(ObsTest, MacrosAreNoOpsWhenMetricsDisabled) {
  obs::MetricsRegistry::instance().disable();
  OBS_COUNTER_ADD("test.disabled_counter", 1);
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_FALSE(snap.counters.contains("test.disabled_counter"));
}

core::SdConfig tiny_config() {
  core::SdConfig config;
  config.particles = 60;
  config.phi = 0.3;
  config.seed = 7;
  return config;
}

TEST_F(ObsTest, OriginalStepperEmitsExpectedSpans) {
  core::SdSimulation sim(tiny_config());
  core::OriginalAlgorithm stepper(sim);
  (void)stepper.run(1);

  std::set<std::string> names;
  for (const auto& ev : obs::TraceRecorder::instance().events()) {
    names.insert(ev.name);
  }
  // One SD step: construct, eig bounds, Chebyshev Brownian force, the
  // two solves, the step itself, and the solver/kernel internals.
  for (const char* expected :
       {core::phase::kConstruct, core::phase::kEigBounds,
        core::phase::kChebSingle, core::phase::kFirstSolve,
        core::phase::kSecondSolve, "step.sd", "cg.solve",
        "chebyshev.apply", "gspmv.apply"}) {
    EXPECT_TRUE(names.contains(expected)) << "missing span: " << expected;
  }

  // And the metrics side recorded the solves.
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_GE(snap.counters.at("cg.solves"), 2.0);  // first + midpoint
  EXPECT_GE(snap.counters.at("stepper.steps"), 1.0);
  EXPECT_GT(snap.counters.at("gspmv.calls"), 0.0);
  EXPECT_GT(snap.counters.at("gspmv.bytes"), 0.0);
  EXPECT_GT(snap.gauges.at("gspmv.effective_bandwidth_gbps"), 0.0);
  EXPECT_GT(snap.histograms.at("cg.iterations_per_solve").total, 0u);
}

TEST_F(ObsTest, MrhsStepperEmitsChunkAndBlockSolveSpans) {
  core::SdSimulation sim(tiny_config());
  core::MrhsAlgorithm stepper(sim, {.rhs = 2});
  (void)stepper.run(2);

  std::set<std::string> names;
  for (const auto& ev : obs::TraceRecorder::instance().events()) {
    names.insert(ev.name);
  }
  for (const char* expected :
       {core::phase::kConstruct, core::phase::kChebVectors,
        core::phase::kCalcGuesses, core::phase::kFirstSolve,
        core::phase::kSecondSolve, "mrhs.chunk", "step.sd",
        "block_cg.solve", "chebyshev.apply_block"}) {
    EXPECT_TRUE(names.contains(expected)) << "missing span: " << expected;
  }

  const auto snap = obs::MetricsRegistry::instance().snapshot();
  EXPECT_GE(snap.counters.at("block_cg.solves"), 1.0);
  EXPECT_GE(snap.counters.at("stepper.chunks"), 1.0);
  EXPECT_GT(snap.histograms.at("block_cg.exit_relative_residual").total, 0u);
  EXPECT_GT(snap.histograms.at("mrhs.guess_rel_error").total, 0u);
}

TEST_F(ObsTest, PhaseTimersStillAccumulateWithTracingOff) {
  obs::TraceRecorder::instance().disable();
  util::PhaseTimers timers;
  {
    util::ScopedPhase t(timers, "phase-a");
  }
  EXPECT_EQ(timers.calls("phase-a"), 1u);
  EXPECT_EQ(obs::TraceRecorder::instance().size(), 0u);
  // string_view lookups hit the same slot as the string that created it.
  timers.add(std::string_view("phase-a"), 1.0);
  EXPECT_EQ(timers.calls("phase-a"), 2u);
}

}  // namespace
