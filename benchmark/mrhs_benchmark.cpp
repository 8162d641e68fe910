// Benchmark driver: runs one workload in one process.
//
//   mrhs_benchmark --workload crowded_mrhs --seed 42 --seconds 15
//                  [--traced] [--smoke] [--out-dir DIR]
//
// The driver times its calls into each module's public entry points
// from outside, checks the outputs those calls produced, and prints
// one JSON object on stdout with the keys workload, seed, traced,
// correct, attempted, failed, checks, metrics and info.
// run_benchmark.py builds the driver, runs it and turns that object
// into the benchmark's result line; README.md defines every metric.
//
// A plain run reports the end-to-end metrics. A --traced run reports
// the per-layer metrics instead: it enables obs::MetricsRegistry around
// the stepping and serving calls, keeps its own spans in memory, runs
// the layer probes on private copies of the state, and writes
// trace.json (Chrome trace) and layers.json into --out-dir.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "ensemble/ensemble_runner.hpp"
#include "ensemble/job_queue.hpp"
#include "obs/metrics.hpp"
#include "sd/assembly_engine.hpp"
#include "sd/packing.hpp"
#include "sd/radii.hpp"
#include "solver/block_cg.hpp"
#include "solver/cg.hpp"
#include "solver/chebyshev.hpp"
#include "solver/lanczos.hpp"
#include "solver/operator.hpp"
#include "sparse/kernel_dispatch.hpp"
#include "sparse/multivector.hpp"
#include "util/checksum.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"

namespace {

using namespace mrhs;
namespace fs = std::filesystem;

// ------------------------------------------------------------ workloads

enum class Kind : std::uint8_t { kMrhs, kOriginal, kServe };

struct Workload {
  const char* name;
  Kind kind;
  std::size_t particles;
  std::size_t smoke_particles;
  double phi;
  double assembly_tolerance;
  /// Stepping workloads: steps in one timed segment. Every segment
  /// restarts from the packed configuration, so each one is the same
  /// work and the step cost does not drift as the packing relaxes.
  std::size_t segment_steps;
};

// Sizes are bounded by set-up: serial packing costs ~4 ms per particle
// at phi = 0.5, and every plain run packs three times (README.md).
constexpr Workload kWorkloads[] = {
    {"crowded_mrhs", Kind::kMrhs, 600, 100, 0.5, 0.0, 64},
    {"crowded_original", Kind::kOriginal, 600, 100, 0.5, 0.0, 64},
    {"cached_incremental", Kind::kMrhs, 600, 100, 0.5, 0.05, 128},
    {"ensemble_serve", Kind::kServe, 100, 40, 0.3, 0.0, 0},
};

/// The packing is a fixed input of each workload; --seed drives the
/// Brownian noise, the job mix and the arrivals. Varying the packing
/// with the seed moved steps/s by +-12 % from seed to seed at 600
/// particles, which would hide the effects the benchmark is for.
constexpr std::uint64_t kSteppingPackingSeed = 42;
/// The packing seed examples/ensemble_serve uses.
constexpr std::uint64_t kServePackingSeed = 2024;

// Serving: the daemon's K and m; phase A is closed loop, phase B is an
// open loop of Poisson arrivals at a fixed rate, never derived at run
// time. Phase A drains ~28 jobs/s at the seed commit; at 11 arrivals/s
// queueing spread phase-B latency over +-14 % from seed to seed, at 6/s
// over +-5 %. At 7/s a 15 s run gives 105 latency samples, so p90 has
// ten beyond it.
constexpr std::size_t kServeBatch = 4;
constexpr std::size_t kServeRhs = 4;
constexpr double kPhaseAJobsPerSecond = 6.4;  // of --seconds
constexpr double kPhaseBRate = 7.0;  // arrivals per second, for --seconds
constexpr std::size_t kRepeatedJobs = 4;

constexpr int kPlainSetups = 3;
constexpr std::size_t kMinSegments = 3;
/// Peak RSS is read after set-up plus this many segments (stepping) or
/// phase-A batches (serving): at the seed commit RSS keeps growing with
/// the work done (~13 KB per Original step, ~150 KB per batch, in jumps
/// that differ from run to run), so a reading at exit would depend on
/// how much work the time allowed.
constexpr std::size_t kRssAfterUnits = 3;
constexpr std::size_t kMinTracedSegments = 4;
/// Layer probes: how long each kernel probe repeats, and how many chunk
/// boundaries of the first traced segment get a probe set.
constexpr double kKernelProbeSeconds = 0.2;
constexpr double kSolverProbeSeconds = 0.05;
constexpr std::size_t kProbeBoundaries = 4;

// ---------------------------------------------------------------- time

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::nan("");
  double s = 0.0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// Median milliseconds per call of `fn`, repeated for at least
/// `min_seconds` and three calls after one warm-up call.
template <class Fn>
double probe_ms(Fn&& fn, double min_seconds) {
  fn();
  std::vector<double> calls;
  double total = 0.0;
  while (total < min_seconds || calls.size() < 3) {
    const double t0 = now_s();
    fn();
    const double dt = now_s() - t0;
    calls.push_back(dt);
    total += dt;
  }
  return 1e3 * median(calls);
}

/// Peak RSS of this process image, in MiB. getrusage's ru_maxrss is
/// not used: Linux carries it across execve, so a driver started from
/// Python reported the parent's peak (a constant 15.4 MiB) instead.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return std::nan("");
}

// ---------------------------------------------------------------- JSON

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_number(values[i]);
  }
  return out + "]";
}

class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& flag(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& text(std::string_view key, std::string_view v) {
    return raw(key, json_string(v));
  }
  JsonObject& raw(std::string_view key, const std::string& json) {
    if (!body_.empty()) body_ += ", ";
    body_ += json_string(key) + ": " + json;
    return *this;
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ------------------------------------------------------------- tracing

/// The driver's own spans, kept in memory and written at exit. A span
/// covers one call into a layer; `id` is the step index or job id.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  int open(const char* name, std::int64_t id) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_s(), 0.0, current_, id});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }

  void close(int index) {
    if (index < 0) return;
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end = now_s();
    current_ = s.parent;
  }

  [[nodiscard]] bool write_chrome(const fs::path& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      JsonObject args;
      args.num("id", static_cast<double>(s.id))
          .num("parent", static_cast<double>(s.parent));
      JsonObject ev;
      ev.text("name", s.name)
          .text("ph", "X")
          .num("ts", 1e6 * s.start)
          .num("dur", 1e6 * (s.end - s.start))
          .num("pid", 1)
          .num("tid", 1)
          .raw("args", args.dump());
      out << (i == 0 ? "" : ",\n") << ev.dump();
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

  /// Per span name: count, total ms, and self ms (duration minus the
  /// part covered by child spans).
  [[nodiscard]] std::string summary_json() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    struct Agg {
      double count = 0.0, total_ms = 0.0, self_ms = 0.0;
    };
    std::map<std::string, Agg> by_name;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Agg& a = by_name[spans_[i].name];
      const double dur = spans_[i].end - spans_[i].start;
      a.count += 1.0;
      a.total_ms += 1e3 * dur;
      a.self_ms += 1e3 * (dur - child[i]);
    }
    JsonObject out;
    for (const auto& [name, a] : by_name) {
      out.raw(name, JsonObject()
                        .num("count", a.count)
                        .num("total_ms", a.total_ms)
                        .num("self_ms", a.self_ms)
                        .dump());
    }
    return out.dump();
  }

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    int parent;
    std::int64_t id;
  };
  bool enabled_ = false;
  int current_ = -1;
  std::vector<Span> spans_;
};

Tracer& tracer() {
  static Tracer t;
  return t;
}

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::int64_t id = -1)
      : index_(tracer().open(name, id)) {}
  ~ScopedSpan() { tracer().close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

/// A traced run records the driver's spans throughout, and turns the
/// metrics registry on only around the stepping and serving calls of
/// its traced segments or batches; probes always run with it off.
void set_metrics(bool on) {
  auto& registry = obs::MetricsRegistry::instance();
  if (on) {
    registry.enable();
  } else {
    registry.disable();
  }
}

class MetricsPause {
 public:
  MetricsPause() : was_on_(obs::MetricsRegistry::instance().enabled()) {
    obs::MetricsRegistry::instance().disable();
  }
  ~MetricsPause() {
    if (was_on_) obs::MetricsRegistry::instance().enable();
  }
  MetricsPause(const MetricsPause&) = delete;
  MetricsPause& operator=(const MetricsPause&) = delete;

 private:
  bool was_on_;
};

using Counters = std::map<std::string, double>;

Counters counters() {
  return obs::MetricsRegistry::instance().snapshot().counters;
}

double delta(const Counters& before, const Counters& after,
             const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return (a == after.end() ? 0.0 : a->second) -
         (b == before.end() ? 0.0 : b->second);
}

// -------------------------------------------------------------- report

struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  JsonObject checks;
  JsonObject metrics;
  JsonObject layers_extra;
  JsonObject info;

  void check(std::string_view name, bool ok) {
    checks.flag(name, ok);
    correct = correct && ok;
  }
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  fs::path out_dir;
};

// -------------------------------------------------------------- probes

/// One set of layer probes on a private full assembly of `sim`'s
/// current configuration, with right-hand sides from its noise stream
/// at `step`. Nothing here touches the simulation's own state.
struct ProbeSample {
  double assemble_full_ms = 0.0;
  double blocks_per_row = 0.0;
  double matrix_mb = 0.0;
  double spmv_ms = 0.0;
  double spmv_bytes = 0.0;
  double gspmv_ms = 0.0;
  double gspmv_bytes = 0.0;
  double lanczos_ms = 0.0;
  double cheb_single_ms = 0.0;
  double cheb_block_ms = 0.0;
  double cg_ms = 0.0;
  double cg_iters = 0.0;
  double block_cg_ms = 0.0;
  double block_cg_iters = 0.0;
};

ProbeSample run_probes(const core::SdSimulation& sim, std::size_t step,
                       std::size_t m) {
  MetricsPause pause;
  ScopedSpan probe_span("probe", static_cast<std::int64_t>(step));
  const core::SdConfig& config = sim.config();
  const std::size_t n = sim.dof();
  ProbeSample p;

  sd::AssemblyEngine engine(sim.resistance_params());
  sparse::BcrsMatrix r;
  {
    ScopedSpan span("sd.assemble_full");
    p.assemble_full_ms = probe_ms(
        [&] { r = engine.assemble_full(sim.system()).matrix; },
        kSolverProbeSeconds);
  }
  p.blocks_per_row =
      static_cast<double>(r.nnzb()) / static_cast<double>(r.block_rows());
  solver::BcrsOperator op(r, config.threads);
  const sparse::GspmvEngine& gspmv = op.engine();
  // Computed bytes: values + indices (BCRS) of the stored matrix.
  p.matrix_mb = static_cast<double>(r.nnzb()) * 76.0 / (1024.0 * 1024.0);

  sparse::MultiVector z(n, m);
  std::vector<double> col(n);
  for (std::size_t k = 0; k < m; ++k) {
    sim.noise(step + k, col);
    z.copy_col_in(k, col);
  }
  std::vector<double> z0(n);
  z.copy_col_out(0, z0);
  std::vector<double> y(n);
  sparse::MultiVector yb(n, m);
  {
    ScopedSpan span("sparse.spmv");
    p.spmv_ms = probe_ms([&] { gspmv.apply(z0, y); }, kKernelProbeSeconds);
  }
  p.spmv_bytes = gspmv.min_bytes(1);
  {
    ScopedSpan span("sparse.gspmv");
    p.gspmv_ms = probe_ms([&] { gspmv.apply(z, yb); }, kKernelProbeSeconds);
  }
  p.gspmv_bytes = gspmv.min_bytes(m);

  solver::EigBounds bounds;
  {
    ScopedSpan span("solver.lanczos");
    p.lanczos_ms = probe_ms([&] { bounds = solver::lanczos_bounds(op); },
                            kSolverProbeSeconds);
  }
  const solver::ChebyshevSqrt cheb(bounds, config.chebyshev_order);
  const double amplitude = -std::sqrt(2.0 * config.kT / sim.dt());
  std::vector<double> f(n);
  sparse::MultiVector fb(n, m);
  {
    ScopedSpan span("solver.cheb_single");
    p.cheb_single_ms =
        probe_ms([&] { cheb.apply(op, z0, f); }, kSolverProbeSeconds);
  }
  {
    ScopedSpan span("solver.cheb_block");
    p.cheb_block_ms =
        probe_ms([&] { cheb.apply_block(op, z, fb); }, kSolverProbeSeconds);
  }
  for (double& v : f) v *= amplitude;
  fb.scale(amplitude);

  solver::CgOptions cg_opts;
  cg_opts.tol = config.solver_tol;
  cg_opts.max_iters = config.solver_max_iters;
  std::vector<double> u(n);
  {
    ScopedSpan span("solver.cg");
    p.cg_ms = probe_ms(
        [&] {
          std::fill(u.begin(), u.end(), 0.0);
          p.cg_iters = static_cast<double>(
              solver::conjugate_gradient(op, f, u, cg_opts).iterations);
        },
        kSolverProbeSeconds);
  }
  solver::BlockCgOptions block_opts;
  block_opts.tol = config.solver_tol;
  block_opts.max_iters = config.solver_max_iters;
  sparse::MultiVector ub(n, m);
  {
    ScopedSpan span("solver.block_cg");
    p.block_cg_ms = probe_ms(
        [&] {
          ub.set_zero();
          p.block_cg_iters = static_cast<double>(
              solver::block_conjugate_gradient(op, fb, ub, block_opts)
                  .iterations);
        },
        kSolverProbeSeconds);
  }
  return p;
}

void add_probe_metrics(const std::vector<ProbeSample>& probes,
                       JsonObject& metrics) {
  auto med = [&](double ProbeSample::*field) {
    std::vector<double> v;
    for (const ProbeSample& p : probes) v.push_back(p.*field);
    return median(std::move(v));
  };
  const double spmv_ms = med(&ProbeSample::spmv_ms);
  const double gspmv_ms = med(&ProbeSample::gspmv_ms);
  const double cg_ms = med(&ProbeSample::cg_ms);
  const double cg_iters = med(&ProbeSample::cg_iters);
  const double block_ms = med(&ProbeSample::block_cg_ms);
  const double block_iters = med(&ProbeSample::block_cg_iters);
  metrics.num("sd.assemble_full_ms", med(&ProbeSample::assemble_full_ms))
      .num("sd.blocks_per_row", med(&ProbeSample::blocks_per_row))
      .num("sd.matrix_mb", med(&ProbeSample::matrix_mb))
      .num("sparse.spmv_ms", spmv_ms)
      .num("sparse.spmv_gbps",
           med(&ProbeSample::spmv_bytes) / (1e-3 * spmv_ms) * 1e-9)
      .num("sparse.gspmv_ms", gspmv_ms)
      .num("sparse.gspmv_gbps",
           med(&ProbeSample::gspmv_bytes) / (1e-3 * gspmv_ms) * 1e-9)
      .num("sparse.gspmv_rel_time", gspmv_ms / spmv_ms)
      .num("solver.lanczos_ms", med(&ProbeSample::lanczos_ms))
      .num("solver.cheb_single_ms", med(&ProbeSample::cheb_single_ms))
      .num("solver.cheb_block_ms", med(&ProbeSample::cheb_block_ms))
      .num("solver.cg_ms", cg_ms)
      .num("solver.cg_iters", cg_iters)
      .num("solver.cg_overhead_ms_per_iter", cg_ms / cg_iters - spmv_ms)
      .num("solver.block_cg_ms", block_ms)
      .num("solver.block_cg_iters", block_iters)
      .num("solver.block_cg_overhead_ms_per_iter",
           block_ms / block_iters - gspmv_ms);
}

double time_pack(const core::SdConfig& config) {
  MetricsPause pause;
  ScopedSpan span("sd.pack");
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(),
                                config.particles, config.seed);
  sd::PackingParams packing;
  packing.seed = config.seed;
  const double t0 = now_s();
  const sd::ParticleSystem packed = sd::pack_equilibrated(
      std::move(radii), config.phi, packing, config.packing_pad);
  const double dt = now_s() - t0;
  if (packed.size() != config.particles) {
    throw std::runtime_error("pack_equilibrated lost particles");
  }
  return dt;
}

/// Per-step paper phases of a RunStats total, merged where a phase of
/// Algorithm 2 replaces one of Algorithm 1, so every workload reports
/// the same names: brownian = Cheb vectors + Cheb single, first_solve
/// = Calc guesses + 1st solve.
void add_phase_metrics(const util::PhaseTimers& t, double steps,
                       double step_wall_s, JsonObject& metrics,
                       JsonObject& extra) {
  namespace ph = core::phase;
  const double per = 1e3 / steps;
  metrics.num("core.phase.construct_ms", per * t.seconds(ph::kConstruct))
      .num("core.phase.eig_bounds_ms", per * t.seconds(ph::kEigBounds))
      .num("core.phase.brownian_ms",
           per * (t.seconds(ph::kChebVectors) + t.seconds(ph::kChebSingle)))
      .num("core.phase.first_solve_ms",
           per * (t.seconds(ph::kCalcGuesses) + t.seconds(ph::kFirstSolve)))
      .num("core.phase.second_solve_ms", per * t.seconds(ph::kSecondSolve))
      .num("core.phase.residual_ms", per * (step_wall_s - t.total()));
  JsonObject paper;
  for (const char* name :
       {ph::kConstruct, ph::kEigBounds, ph::kChebVectors, ph::kCalcGuesses,
        ph::kChebSingle, ph::kFirstSolve, ph::kSecondSolve}) {
    paper.num(name, per * t.seconds(name));
  }
  extra.raw("paper_phase_ms_per_step", paper.dump())
      .num("residual_share_of_step", 1.0 - t.total() / step_wall_s);
}

void add_assembly_counters(const Counters& before, const Counters& after,
                           double steps, JsonObject& metrics) {
  const double reused = delta(before, after, "assembly.blocks_reused");
  const double dirty = delta(before, after, "assembly.pairs_dirty");
  metrics
      .num("sd.assembly_reuse_frac",
           reused + dirty > 0.0 ? reused / (reused + dirty) : 0.0)
      .num("sd.pattern_rebuilds_per_step",
           delta(before, after, "assembly.pattern_rebuilds") / steps)
      .num("sparse.vector_products_per_step",
           delta(before, after, "gspmv.vector_products") / steps);
}

// ------------------------------------------------------------ ensemble

/// Portable seeded generator (SplitMix64) for the job mix and arrivals.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// `count` jobs with their own noise streams: a quarter run 16 steps
/// and the rest 8, in a seeded order. Fixed proportions keep the latency
/// p50 inside the short-job mode and p90 inside the long-job mode; with
/// lengths drawn 50/50 the median sat between the modes and moved with
/// each seed's mix.
std::vector<ensemble::JobSpec> make_jobs(std::uint64_t seed,
                                         std::size_t first_index,
                                         std::size_t count, SplitMix& rng) {
  std::vector<ensemble::JobSpec> jobs(count);
  for (std::size_t i = 0; i < count; ++i) {
    jobs[i].noise_seed = seed * 1000003ull + first_index + i + 1;
    jobs[i].steps = i < (count + 2) / 4 ? 16 : 8;
  }
  for (std::size_t i = count; i > 1; --i) {
    std::swap(jobs[i - 1].steps, jobs[rng.next() % i].steps);
  }
  return jobs;
}

ensemble::JobQueueOptions queue_options(const fs::path& journal,
                                        std::size_t capacity) {
  std::error_code ec;
  fs::remove(journal, ec);
  ensemble::JobQueueOptions o;
  o.capacity = capacity;
  o.batch_size = kServeBatch;
  o.journal_path = journal.string();
  o.ensemble.rhs = kServeRhs;
  return o;
}

void require_ok(const core::Status& s, const char* what) {
  if (!s.is_ok()) {
    throw std::runtime_error(std::string(what) + ": " + s.to_string());
  }
}

struct BatchProbe {
  double runner_setup_s = 0.0;
  std::vector<double> batch_ms;
  std::vector<double> submit_ms;
  double jobs = 0.0;
  double rounds = 0.0;
  double repacks = 0.0;
  bool completed = false;
};

/// Ensemble layer on a stepping workload's system: an EnsembleRunner
/// built from outside, then one full batch of K jobs through a
/// journaled JobQueue.
BatchProbe probe_ensemble(const core::SdConfig& config, std::uint64_t seed,
                          const fs::path& dir) {
  BatchProbe p;
  {
    ScopedSpan span("ensemble.runner_setup");
    const double t0 = now_s();
    const ensemble::EnsembleRunner runner(config, {.rhs = kServeRhs});
    p.runner_setup_s = now_s() - t0;
  }
  ensemble::JobQueue queue(config, queue_options(dir / "probe.jrnl", 16));
  require_ok(queue.open(), "probe queue open");
  SplitMix rng(seed);
  for (const ensemble::JobSpec& job : make_jobs(seed, 0, kServeBatch, rng)) {
    ensemble::Admission admission;
    const double t0 = now_s();
    require_ok(queue.submit(job, admission), "submit");
    p.submit_ms.push_back(1e3 * (now_s() - t0));
  }
  const Counters before = counters();
  {
    ScopedSpan span("ensemble.run_batch");
    set_metrics(true);
    const double t0 = now_s();
    require_ok(queue.run_batch(), "run_batch");
    p.batch_ms.push_back(1e3 * (now_s() - t0));
    set_metrics(false);
  }
  const Counters after = counters();
  p.rounds = delta(before, after, "ensemble.rounds");
  p.repacks = delta(before, after, "ensemble.repacks");
  p.jobs = static_cast<double>(queue.results().size());
  p.completed = queue.outstanding() == 0 &&
                std::all_of(queue.results().begin(), queue.results().end(),
                            [](const ensemble::JobResult& r) {
                              return r.state == ensemble::JobState::kCompleted;
                            });
  return p;
}

void add_ensemble_metrics(const BatchProbe& p, double batches,
                          double batch_fill, JsonObject& metrics) {
  metrics.num("ensemble.runner_setup_s", p.runner_setup_s)
      .num("ensemble.batch_ms.p50", median(p.batch_ms))
      .num("ensemble.batch_fill", batch_fill)
      .num("ensemble.submit_ms.p90", quantile(p.submit_ms, 0.9))
      .num("ensemble.rounds_per_batch", p.rounds / batches)
      .num("ensemble.repacks_per_batch", p.repacks / batches);
}

// ------------------------------------------------------------ stepping

bool positions_finite(const sd::ParticleSystem& system) {
  for (const sd::Vec3& p : system.positions()) {
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) {
      return false;
    }
  }
  return true;
}

std::uint32_t positions_crc(const sd::ParticleSystem& system) {
  const auto pos = system.positions();
  return util::crc32(pos.data(), pos.size() * sizeof(sd::Vec3));
}

/// The output checks compare trajectories after this many steps. Over
/// longer stretches an exact-assembly trajectory can, for rare noise
/// seeds, hit an event that moves many particles at once (seed 7 at
/// step 125); 61 seeds showed none within 64 steps on any path.
constexpr std::size_t kCheckSteps = 64;

struct Segment {
  std::size_t m = 0;  // the block width the segment's algorithm used
  std::vector<double> step_s;
  std::vector<double> head_s;
  double wall_s = 0.0;
  core::RunStats stats;
  std::size_t failed = 0;
  std::uint32_t end_crc = 0;
  // State after kCheckSteps (or the last step of a shorter segment).
  std::uint32_t crc = 0;
  double msd = 0.0;
  std::vector<sd::Vec3> displacement;
};

using BoundaryHook = std::function<void(const core::SdSimulation&,
                                        std::size_t step, std::size_t m)>;

/// `steps` run(1) calls, each timed from outside. A head step starts a
/// chunk (MRHS: every m-th step) or recalibrates the Chebyshev interval
/// (Original: every bounds_refresh-th step).
template <class Algorithm>
Segment run_segment(core::SdSimulation& sim, Algorithm& alg,
                    std::size_t steps, std::size_t head_period, std::size_t m,
                    const BoundaryHook& hook) {
  Segment seg;
  seg.m = m;
  const std::size_t check_step = std::min(steps, kCheckSteps);
  for (std::size_t k = 0; k < steps; ++k) {
    const bool head = k % head_period == 0;
    if (head && hook) hook(sim, k, m);
    core::RunStats stats;
    double dt = 0.0;
    {
      ScopedSpan span("core.step", static_cast<std::int64_t>(k));
      const double t0 = now_s();
      stats = alg.run(1);
      dt = now_s() - t0;
    }
    seg.step_s.push_back(dt);
    if (head) seg.head_s.push_back(dt);
    seg.wall_s += dt;
    if (!solver::solve_succeeded(stats.solver_status) ||
        !positions_finite(sim.system())) {
      ++seg.failed;
    }
    seg.stats.merge(stats);
    if (k + 1 == check_step) {
      seg.crc = positions_crc(sim.system());
      seg.msd = sim.system().mean_squared_displacement();
      for (std::size_t i = 0; i < sim.system().size(); ++i) {
        seg.displacement.push_back(sim.system().unwrapped_displacement(i));
      }
    }
  }
  seg.end_crc = positions_crc(sim.system());
  return seg;
}

struct Pristine {
  sd::ParticleSystem system;
  double dt = 0.0;
  double mean_radius = 0.0;
};

Segment run_trajectory(Kind kind, const core::SdConfig& config,
                       const Pristine& start, std::size_t steps,
                       const BoundaryHook& hook) {
  core::SdSimulation sim(config, start.system, start.dt, start.mean_radius);
  // The Original algorithm has no m; its probes use the MRHS default on
  // the same matrix, which is what the two algorithms are compared at.
  if (kind == Kind::kOriginal) {
    const core::AlgorithmConfig defaults;
    core::OriginalAlgorithm alg(sim, defaults);
    return run_segment(sim, alg, steps, defaults.bounds_refresh, defaults.rhs,
                       hook);
  }
  core::MrhsAlgorithm alg(sim);
  alg.set_horizon(steps);
  return run_segment(sim, alg, steps, alg.rhs(), alg.rhs(), hook);
}

/// Rms difference of two trajectories' particle displacements, relative
/// to their rms displacement.
double trajectory_difference(const Segment& a, const Segment& b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.displacement.size(); ++i) {
    sum += (a.displacement[i] - b.displacement[i]).norm2();
  }
  return std::sqrt(sum / static_cast<double>(a.displacement.size()) / a.msd);
}

void run_stepping(const Options& opts, Report& report) {
  const Workload& w = *opts.workload;
  core::SdConfig config;
  config.particles = opts.smoke ? w.smoke_particles : w.particles;
  config.phi = w.phi;
  config.seed = kSteppingPackingSeed;
  config.assembly_tolerance = w.assembly_tolerance;
  const std::size_t steps = opts.smoke ? 16 : w.segment_steps;

  // Set-up: SdConfig to a ready simulation (sampling, packing, dt).
  std::vector<double> setup_s;
  std::optional<core::SdSimulation> packed;
  for (int r = 0; r < (opts.traced ? 1 : kPlainSetups); ++r) {
    const double t0 = now_s();
    packed.emplace(config);
    setup_s.push_back(now_s() - t0);
  }
  const Pristine start{packed->system(), packed->dt(), packed->mean_radius()};
  packed.reset();
  core::SdConfig noisy = config;
  noisy.seed = opts.seed;

  // Traced runs probe the first traced segment at evenly spaced chunk
  // boundaries, on private state, so the trajectory is untouched.
  std::vector<ProbeSample> probes;
  const std::size_t probe_every =
      std::max<std::size_t>(1, steps / kProbeBoundaries);
  const BoundaryHook probe_hook =
      [&](const core::SdSimulation& sim, std::size_t step, std::size_t width) {
        if (step % probe_every == 0) {
          probes.push_back(run_probes(sim, step, width));
        }
      };

  // Traced runs alternate segments with the metrics registry on and
  // off; the rate ratio of the two halves is the tracing overhead.
  std::vector<Segment> segments;
  std::vector<bool> traced_segment;
  double stepping_s = 0.0;
  const std::size_t min_segments =
      opts.traced ? kMinTracedSegments : kMinSegments;
  double rss_mb = 0.0;
  const Counters before = counters();
  while (segments.size() < min_segments || stepping_s < opts.seconds) {
    const bool traced = opts.traced && segments.size() % 2 == 0;
    Segment seg;
    {
      ScopedSpan span("segment", static_cast<std::int64_t>(segments.size()));
      set_metrics(traced);
      seg = run_trajectory(w.kind, noisy, start, steps,
                           traced && segments.empty() ? probe_hook
                                                      : BoundaryHook{});
      set_metrics(false);
    }
    stepping_s += seg.wall_s;
    segments.push_back(std::move(seg));
    traced_segment.push_back(traced);
    if (segments.size() == kRssAfterUnits) rss_mb = peak_rss_mb();
  }
  const Counters after = counters();
  const std::size_t m = segments.front().m;

  // Output checks.
  std::size_t total_steps = 0;
  bool repeatable = true;
  for (const Segment& seg : segments) {
    total_steps += seg.step_s.size();
    report.failed += seg.failed;
    repeatable = repeatable && seg.end_crc == segments.front().end_crc;
  }
  report.attempted = total_steps;
  report.check("steps_succeeded", report.failed == 0);
  report.check("segments_bitwise_repeatable", repeatable);
  // Independent reference: the same steps through the other algorithm
  // with exact assembly agree to the solver tolerance (incremental
  // assembly adds its bounded perturbation on top).
  core::SdConfig reference_config = noisy;
  reference_config.assembly_tolerance = 0.0;
  const Segment reference = run_trajectory(
      w.kind == Kind::kOriginal ? Kind::kMrhs : Kind::kOriginal,
      reference_config, start, std::min(steps, kCheckSteps), {});
  const double difference = trajectory_difference(segments.front(), reference);
  // Seed-commit differences: ~4e-5 exact, ~0.04 at tolerance 0.05 a.
  const double limit = w.assembly_tolerance > 0.0 ? 0.2 : 1e-3;
  report.check("matches_reference_algorithm", difference <= limit);
  report.checks.num("reference_rel_difference", difference)
      .num("reference_rel_limit", limit)
      .num("msd", segments.front().msd)
      .num("positions_crc", segments.front().crc);

  std::vector<double> seg_rate;
  std::vector<double> all_steps;
  for (const Segment& seg : segments) {
    seg_rate.push_back(static_cast<double>(seg.step_s.size()) / seg.wall_s);
    all_steps.insert(all_steps.end(), seg.step_s.begin(), seg.step_s.end());
  }
  const sparse::BcrsMatrix r0 =
      core::SdSimulation(config, start.system, start.dt, start.mean_radius)
          .assemble()
          .matrix;
  report.info.num("particles", static_cast<double>(config.particles))
      .num("phi", config.phi)
      .num("packing_seed", static_cast<double>(config.seed))
      .num("assembly_tolerance", config.assembly_tolerance)
      .num("m", static_cast<double>(m))
      .num("segment_steps", static_cast<double>(steps))
      .num("segments", static_cast<double>(segments.size()))
      .num("nnzb_per_nb", static_cast<double>(r0.nnzb()) /
                              static_cast<double>(r0.block_rows()));

  if (!opts.traced) {
    report.metrics.num("setup_s", median(setup_s))
        .num("steps_per_s", median(seg_rate))
        .num("latency_p50_ms", 1e3 * quantile(all_steps, 0.5))
        .num("latency_p90_ms", 1e3 * quantile(all_steps, 0.9))
        .num("peak_rss_mb", rss_mb);
    report.info.num("peak_rss_mb_at_exit", peak_rss_mb());
    report.info.raw("setup_runs_s", json_array(setup_s))
        .raw("segment_steps_per_s", json_array(seg_rate));
    return;
  }

  // Per-layer metrics from the traced segments.
  core::RunStats traced_stats;
  std::vector<double> traced_steps;
  std::vector<double> heads;
  std::vector<double> traced_rate;
  std::vector<double> plain_rate;
  double traced_wall = 0.0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const Segment& seg = segments[i];
    if (!traced_segment[i]) {
      plain_rate.push_back(seg_rate[i]);
      continue;
    }
    traced_rate.push_back(seg_rate[i]);
    traced_stats.merge(seg.stats);
    traced_wall += seg.wall_s;
    traced_steps.insert(traced_steps.end(), seg.step_s.begin(),
                        seg.step_s.end());
    heads.insert(heads.end(), seg.head_s.begin(), seg.head_s.end());
  }
  const double n_steps = static_cast<double>(traced_steps.size());
  std::vector<double> first_iters;
  std::vector<double> second_iters;
  std::vector<double> guess_error;
  for (const core::StepRecord& rec : traced_stats.steps) {
    first_iters.push_back(static_cast<double>(rec.iters_first_solve));
    second_iters.push_back(static_cast<double>(rec.iters_second_solve));
    // Chunk heads take their solution from the block solve (error 0);
    // the error that matters is that of the mid-chunk guesses.
    if (rec.step % m != 0 && rec.guess_rel_error >= 0.0) {
      guess_error.push_back(rec.guess_rel_error);
    }
  }
  report.metrics.num("core.step_ms.p50", 1e3 * median(traced_steps))
      .num("core.chunk_head_ms.p50", 1e3 * median(heads));
  add_phase_metrics(traced_stats.timers, n_steps, traced_wall,
                    report.metrics, report.layers_extra);
  report.metrics.num("core.first_solve_iters", mean(first_iters))
      .num("core.second_solve_iters", mean(second_iters))
      // The Original algorithm solves from a zero guess: error 1.
      .num("core.guess_rel_error",
           guess_error.empty() ? 1.0 : mean(guess_error));
  report.layers_extra
      .num("core.block_iters_per_chunk",
           static_cast<double>(traced_stats.block_iterations) /
               static_cast<double>(heads.size()))
      .num("core.calc_guesses_ms_per_chunk",
           1e3 * traced_stats.timers.seconds(core::phase::kCalcGuesses) /
               static_cast<double>(heads.size()));
  add_assembly_counters(before, after, n_steps, report.metrics);
  report.metrics.num("sd.pack_s", time_pack(config));
  add_probe_metrics(probes, report.metrics);

  const BatchProbe batch = probe_ensemble(config, opts.seed, opts.out_dir);
  report.check("ensemble_probe_completed", batch.completed);
  add_ensemble_metrics(batch, 1.0, batch.jobs / kServeBatch, report.metrics);
  report.metrics.num("obs.trace_overhead_frac",
                     1.0 - median(traced_rate) / median(plain_rate));
}

// ------------------------------------------------------------- serving

struct Served {
  ensemble::JobSpec spec;
  double due = 0.0;  // phase B: arrival time from the phase start
};

void run_serve(const Options& opts, Report& report) {
  const Workload& w = *opts.workload;
  core::SdConfig base;
  base.particles = opts.smoke ? w.smoke_particles : w.particles;
  base.phi = w.phi;
  base.seed = kServePackingSeed;
  auto jobs_for = [&](double per_second, std::size_t at_least) {
    return std::max(at_least, static_cast<std::size_t>(
                                  std::lround(per_second * opts.seconds)));
  };
  const std::size_t n_a = jobs_for(kPhaseAJobsPerSecond, kRepeatedJobs);
  const std::size_t n_b = jobs_for(kPhaseBRate, 2 * kRepeatedJobs);
  const std::size_t capacity = n_a + n_b;

  // Set-up: start-up to first result — open a fresh journaled queue
  // and serve one one-step job (the batch packs the base system).
  std::vector<double> setup_s;
  bool setup_ok = true;
  for (int r = 0; r < (opts.traced ? 0 : kPlainSetups); ++r) {
    const double t0 = now_s();
    ensemble::JobQueue queue(
        base, queue_options(opts.out_dir / ("setup" + std::to_string(r) +
                                            ".jrnl"),
                            capacity));
    require_ok(queue.open(), "queue open");
    ensemble::JobSpec warm;
    warm.noise_seed = opts.seed;
    warm.steps = 1;
    ensemble::Admission admission;
    require_ok(queue.submit(warm, admission), "submit");
    require_ok(queue.run_batch(), "run_batch");
    setup_s.push_back(now_s() - t0);
    setup_ok = setup_ok && queue.results().size() == 1 &&
               queue.results().front().state ==
                   ensemble::JobState::kCompleted;
  }
  report.check("setup_job_completed", setup_ok);

  // The job mix. Phase B repeats kRepeatedJobs phase-A scenarios, whose
  // results must match bitwise whatever else shares their batch.
  SplitMix rng(opts.seed);
  std::vector<Served> jobs;
  for (const ensemble::JobSpec& spec : make_jobs(opts.seed, 0, n_a, rng)) {
    jobs.push_back({spec, 0.0});
  }
  const std::vector<ensemble::JobSpec> phase_b_specs =
      make_jobs(opts.seed, n_a, n_b, rng);
  const std::size_t stride = n_b / kRepeatedJobs;
  double t = 0.0;
  for (std::size_t i = 0; i < n_b; ++i) {
    t += -std::log(1.0 - rng.uniform()) / kPhaseBRate;
    const bool repeat = i % stride == stride / 2 && i / stride < kRepeatedJobs;
    jobs.push_back({repeat ? jobs[i / stride].spec : phase_b_specs[i], t});
  }

  ensemble::JobQueue queue(
      base, queue_options(opts.out_dir / "serve.jrnl", capacity));
  require_ok(queue.open(), "queue open");
  std::map<std::uint64_t, std::size_t> job_of_id;
  std::vector<double> submit_ms;
  std::size_t rejected = 0;
  auto submit = [&](std::size_t index) {
    ScopedSpan span("ensemble.submit", static_cast<std::int64_t>(index));
    ensemble::Admission admission;
    const double t0 = now_s();
    require_ok(queue.submit(jobs[index].spec, admission), "submit");
    submit_ms.push_back(1e3 * (now_s() - t0));
    if (admission.accepted) {
      job_of_id[admission.id] = index;
    } else {
      ++rejected;
    }
  };
  std::map<std::uint64_t, std::vector<ensemble::JobResult>> results_by_id;
  struct Batch {
    double seconds = 0.0;
    double member_steps = 0.0;
    bool traced = false;
    std::vector<ensemble::JobResult> results;  // returned by this batch
  };
  auto run_batch = [&](bool traced) {
    Batch b;
    b.traced = traced;
    const std::size_t seen = queue.results().size();
    {
      ScopedSpan span("ensemble.run_batch",
                      static_cast<std::int64_t>(queue.batches_run()));
      set_metrics(traced);
      const double t0 = now_s();
      require_ok(queue.run_batch(), "run_batch");
      b.seconds = now_s() - t0;
      set_metrics(false);
    }
    b.results.assign(
        queue.results().begin() + static_cast<std::ptrdiff_t>(seen),
        queue.results().end());
    for (const ensemble::JobResult& r : b.results) {
      b.member_steps += static_cast<double>(r.steps_done);
      results_by_id[r.id].push_back(r);
    }
    return b;
  };

  const Counters before = counters();
  // Phase A: one client submits every job at t = 0, then drains.
  std::vector<Batch> phase_a;
  double rss_mb = 0.0;
  {
    ScopedSpan span("phase_a");
    for (std::size_t i = 0; i < n_a; ++i) submit(i);
    while (queue.outstanding() > 0) {
      phase_a.push_back(run_batch(opts.traced && phase_a.size() % 2 == 0));
      if (phase_a.size() == kRssAfterUnits) rss_mb = peak_rss_mb();
    }
  }
  // Phase B: open loop. Each turn submits every due job, then runs one
  // batch; latency counts from the job's due time.
  std::vector<Batch> phase_b;
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;
  {
    ScopedSpan span("phase_b");
    const double t0 = now_s();
    std::size_t next = n_a;
    while (next < jobs.size() || queue.outstanding() > 0) {
      while (next < jobs.size() && jobs[next].due <= now_s() - t0) {
        lag_ms.push_back(1e3 * (now_s() - t0 - jobs[next].due));
        submit(next++);
      }
      if (queue.outstanding() > 0) {
        phase_b.push_back(run_batch(opts.traced));
        const double done = now_s() - t0;
        for (const ensemble::JobResult& r : phase_b.back().results) {
          latency_ms.push_back(1e3 * (done - jobs[job_of_id[r.id]].due));
        }
      } else if (next < jobs.size()) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            jobs[next].due - (now_s() - t0)));
      }
    }
  }
  const Counters after = counters();

  // Output checks: exactly one completed result per admitted job, and
  // repeated scenarios reproduce their phase-A result bitwise.
  report.attempted = jobs.size();
  report.failed = rejected;
  std::map<std::size_t, std::uint32_t> crc_of_job;
  bool msd_ok = true;
  for (const auto& [id, index] : job_of_id) {
    const auto it = results_by_id.find(id);
    const bool one_completed =
        it != results_by_id.end() && it->second.size() == 1 &&
        it->second.front().state == ensemble::JobState::kCompleted &&
        it->second.front().steps_done == jobs[index].spec.steps;
    if (!one_completed) {
      ++report.failed;
      continue;
    }
    crc_of_job[index] = it->second.front().positions_crc;
    msd_ok = msd_ok && std::isfinite(it->second.front().msd) &&
             it->second.front().msd > 0.0;
  }
  bool repeats_match = true;
  for (std::size_t i = n_a; i < jobs.size(); ++i) {
    for (std::size_t j = 0; j < kRepeatedJobs; ++j) {
      const bool same = jobs[i].spec.noise_seed == jobs[j].spec.noise_seed;
      if (same) repeats_match = repeats_match && crc_of_job.contains(i) &&
                                crc_of_job.contains(j) &&
                                crc_of_job[i] == crc_of_job[j];
    }
  }
  report.check("jobs_completed_once", report.failed == 0);
  report.check("results_msd_finite", msd_ok);
  report.check("repeated_jobs_bitwise_equal", repeats_match);

  double phase_a_steps = 0.0;
  double phase_a_seconds = 0.0;
  for (const Batch& b : phase_a) {
    phase_a_steps += b.member_steps;
    phase_a_seconds += b.seconds;
  }
  report.info.num("particles", static_cast<double>(base.particles))
      .num("phi", base.phi)
      .num("packing_seed", static_cast<double>(base.seed))
      .num("m", static_cast<double>(kServeRhs))
      .num("batch_size", static_cast<double>(kServeBatch))
      .num("phase_a_jobs", static_cast<double>(n_a))
      .num("phase_b_jobs", static_cast<double>(n_b))
      .num("phase_b_rate_per_s", kPhaseBRate)
      .num("phase_a_batches", static_cast<double>(phase_a.size()))
      .num("phase_b_batches", static_cast<double>(phase_b.size()));

  if (!opts.traced) {
    report.metrics.num("setup_s", median(setup_s))
        .num("steps_per_s", phase_a_steps / phase_a_seconds)
        .num("latency_p50_ms", quantile(latency_ms, 0.5))
        .num("latency_p90_ms", quantile(latency_ms, 0.9))
        .num("peak_rss_mb", rss_mb);
    report.info.num("peak_rss_mb_at_exit", peak_rss_mb());
    report.info.num("loadgen_lag_ms_p90", quantile(lag_ms, 0.9));
    return;
  }

  // Per-layer metrics. Core phases come from a probe runner built from
  // outside with the first K phase-A scenarios; a post-step hook times
  // each member step, and the gap before a round's first member step
  // is that round's head (calibration, pack, shared Chebyshev, guesses).
  BatchProbe layer;
  std::vector<double> step_s;
  std::vector<double> head_s;
  util::PhaseTimers timers;
  double member_steps = 0.0;
  double run_s = 0.0;
  std::vector<double> first_iters;
  std::vector<double> second_iters;
  std::vector<double> guess_error;
  {
    MetricsPause pause;
    ScopedSpan span("ensemble.runner_probe");
    const double t0 = now_s();
    ensemble::EnsembleRunner runner(base, {.rhs = kServeRhs});
    layer.runner_setup_s = now_s() - t0;
    for (std::size_t i = 0; i < kServeBatch; ++i) {
      ensemble::Scenario s;
      s.id = i + 1;
      s.noise_seed = jobs[i].spec.noise_seed;
      s.steps = static_cast<std::size_t>(jobs[i].spec.steps);
      static_cast<void>(runner.add_member(s));
    }
    // Members advance in lockstep, so a step's round is step / m.
    std::map<std::uint64_t, std::pair<std::size_t, double>> last;
    std::size_t next_round = 0;
    double previous_hook = 0.0;
    runner.set_post_step_hook(
        [&](std::uint64_t id, std::size_t step, sd::ParticleSystem&) {
          const double now = now_s();
          if (step / kServeRhs == next_round) {
            head_s.push_back(now - previous_hook);
            ++next_round;
          } else if (const auto it = last.find(id);
                     it != last.end() && it->second.first + 1 == step &&
                     step % kServeRhs != 0) {
            step_s.push_back(now - it->second.second);
          }
          last[id] = {step, now};
          previous_hook = now;
        });
    previous_hook = now_s();
    const double run_start = previous_hook;
    const std::vector<ensemble::MemberReport> reports = runner.run();
    run_s = now_s() - run_start;
    timers.merge(runner.shared_stats().timers);
    bool probe_matches = true;
    for (const ensemble::MemberReport& r : reports) {
      member_steps += static_cast<double>(r.steps_done);
      timers.merge(r.stats.timers);
      for (const core::StepRecord& rec : r.stats.steps) {
        first_iters.push_back(static_cast<double>(rec.iters_first_solve));
        second_iters.push_back(static_cast<double>(rec.iters_second_solve));
        if (rec.guess_rel_error >= 0.0) {
          guess_error.push_back(rec.guess_rel_error);
        }
      }
      const std::size_t job = static_cast<std::size_t>(r.id - 1);
      probe_matches = probe_matches && crc_of_job.contains(job) &&
                      crc_of_job[job] == r.positions_crc;
    }
    report.check("runner_probe_matches_queue", probe_matches);
  }
  report.metrics.num("core.step_ms.p50", 1e3 * median(step_s))
      .num("core.chunk_head_ms.p50", 1e3 * median(head_s));
  add_phase_metrics(timers, member_steps, run_s, report.metrics,
                    report.layers_extra);
  report.metrics.num("core.first_solve_iters", mean(first_iters))
      .num("core.second_solve_iters", mean(second_iters))
      .num("core.guess_rel_error", mean(guess_error));

  double traced_steps = 0.0;
  double traced_batches = 0.0;
  std::vector<double> traced_rate;
  std::vector<double> plain_rate;
  std::vector<double> fill;
  for (const Batch& b : phase_a) {
    (b.traced ? traced_rate : plain_rate).push_back(b.member_steps / b.seconds);
  }
  for (const std::vector<Batch>* phase : {&phase_a, &phase_b}) {
    for (const Batch& b : *phase) {
      if (!b.traced) continue;
      traced_steps += b.member_steps;
      traced_batches += 1.0;
      layer.batch_ms.push_back(1e3 * b.seconds);
    }
  }
  for (const Batch& b : phase_b) {
    fill.push_back(static_cast<double>(b.results.size()) / kServeBatch);
  }
  add_assembly_counters(before, after, traced_steps, report.metrics);
  report.metrics.num("sd.pack_s", time_pack(base));
  core::SdConfig noisy = base;
  noisy.seed = jobs.front().spec.noise_seed;
  const core::SdSimulation packed(base);
  const core::SdSimulation sim(noisy, packed.system(), packed.dt(),
                               packed.mean_radius());
  add_probe_metrics({run_probes(sim, 0, kServeRhs)}, report.metrics);
  layer.submit_ms = submit_ms;
  layer.rounds = delta(before, after, "ensemble.rounds");
  layer.repacks = delta(before, after, "ensemble.repacks");
  add_ensemble_metrics(layer, traced_batches, mean(fill), report.metrics);
  report.metrics.num("obs.trace_overhead_frac",
                     1.0 - median(traced_rate) / median(plain_rate));
  report.layers_extra.num("loadgen.lag_ms.p90", quantile(lag_ms, 0.9))
      .num("phase_b.latency_ms.p50", quantile(latency_ms, 0.5))
      .num("phase_b.latency_ms.p90", quantile(latency_ms, 0.9));
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "crowded_mrhs";
  std::int64_t seed = 42;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string out_dir = "build-benchmark/runs/default";
  util::ArgParser args("mrhs_benchmark",
                       "Run one benchmark workload and print its metrics");
  args.add("workload", workload,
           "crowded_mrhs | crowded_original | cached_incremental | "
           "ensemble_serve");
  args.add("seed", seed, "seed of the noise, job mix and arrivals");
  args.add("seconds", seconds, "stepping or serving time to measure");
  args.add("traced", traced, "report per-layer metrics and write traces");
  args.add("smoke", smoke, "tiny sizes, for the schema smoke test");
  args.add("out-dir", out_dir, "directory for journals and trace files");
  args.parse(argc, argv);

  Options opts;
  opts.workload = find_workload(workload);
  if (opts.workload == nullptr || seed < 0 || !(seconds > 0.0)) {
    std::fprintf(stderr, "error: bad --workload, --seed or --seconds\n%s",
                 args.usage().c_str());
    return 2;
  }
  opts.seed = static_cast<std::uint64_t>(seed);
  opts.seconds = seconds;
  opts.traced = traced;
  opts.smoke = smoke;
  opts.out_dir = out_dir;

  Report report;
  tracer().set_enabled(opts.traced);
  try {
    fs::create_directories(opts.out_dir);
    if (opts.workload->kind == Kind::kServe) {
      run_serve(opts, report);
    } else {
      run_stepping(opts, report);
    }
    report.info.num("threads", util::max_threads())
        .text("kernel_isa", sparse::kernels::Dispatch::instance().describe());
    if (opts.traced) {
      const fs::path trace_path = opts.out_dir / "trace.json";
      const fs::path layers_path = opts.out_dir / "layers.json";
      std::ofstream layers(layers_path);
      layers << JsonObject()
                    .text("workload", workload)
                    .num("seed", static_cast<double>(seed))
                    .raw("metrics", report.metrics.dump())
                    .raw("extra", report.layers_extra.dump())
                    .raw("spans", tracer().summary_json())
                    .raw("info", report.info.dump())
                    .dump()
             << "\n";
      report.check("trace_files_written",
                   tracer().write_chrome(trace_path) &&
                       static_cast<bool>(layers));
      report.info.text("trace_file", trace_path.string())
          .text("layers_file", layers_path.string());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("%s\n", JsonObject()
                          .text("workload", workload)
                          .num("seed", static_cast<double>(seed))
                          .flag("traced", traced)
                          .flag("correct", report.correct)
                          .num("attempted",
                               static_cast<double>(report.attempted))
                          .num("failed", static_cast<double>(report.failed))
                          .raw("checks", report.checks.dump())
                          .raw("metrics", report.metrics.dump())
                          .raw("info", report.info.dump())
                          .dump()
                          .c_str());
  return 0;
}
