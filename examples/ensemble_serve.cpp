// Ensemble serving daemon: a crash-safe job queue in front of the
// fault-isolated EnsembleRunner.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/ensemble_serve --jobs 4 --steps 8 --journal q.jrnl
//
// Each job is a scenario (own noise seed) of one shared base system;
// co-scheduled jobs ride one packed block-Chebyshev sweep. Every
// submission and terminal result is journaled (CRC-framed, fsync'd)
// before it is acknowledged, so killing the daemon at any instant and
// rerunning it with the same --journal resumes with no lost and no
// duplicated completed jobs:
//   ensemble_serve --jobs 4 --batch 2 --journal q.jrnl --kill-after 1
//   ensemble_serve --jobs 4 --batch 2 --journal q.jrnl   # resumes
// (scripts/check_ensemble_chaos.py asserts exactly this, plus the
// member-containment drills.)
//
// Chaos drills (builds with fault injection compiled in):
//   --faults ensemble.member.rhs.nan@2   poison one member's packed RHS
//   --faults ensemble.journal.torn@3     tear a journal append mid-record
//   --faults ensemble.queue.overflow@1   force a backpressure rejection
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/sd_simulation.hpp"
#include "core/status.hpp"
#include "ensemble/job_queue.hpp"
#include "util/cli.hpp"
#include "util/fault_injection.hpp"

namespace {

/// One JSONL line per terminal job; positions_crc is the bitwise
/// trajectory fingerprint the chaos drills compare across runs.
bool write_results(const std::vector<mrhs::ensemble::JobResult>& results,
                   const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  for (const auto& r : results) {
    std::fprintf(out,
                 "{\"id\": %llu, \"state\": \"%s\", \"steps\": %llu, "
                 "\"rollbacks\": %u, \"attempts\": %u, \"msd\": %.17g, "
                 "\"positions_crc\": %u, \"resumed\": %s}\n",
                 static_cast<unsigned long long>(r.id),
                 mrhs::ensemble::to_string(r.state),
                 static_cast<unsigned long long>(r.steps_done), r.rollbacks,
                 r.attempts, r.msd, r.positions_crc,
                 r.resumed ? "true" : "false");
  }
  std::fclose(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrhs;

  int jobs = 4;
  int steps = 8;
  int particles = 200;
  double phi = 0.3;
  int rhs = 4;
  int batch = 4;
  int capacity = 64;
  int max_attempts = 3;
  double deadline = 0.0;
  int kill_after = 0;
  std::string journal_path;
  std::string results_path;
  util::ArgParser args("ensemble_serve",
                       "Serve ensemble scenario jobs with per-member fault "
                       "containment and a crash-safe journal");
  args.add("jobs", jobs, "scenario jobs to submit (fresh journal only)");
  args.add("steps", steps, "trajectory steps per job");
  args.add("particles", particles, "particles in the shared base system");
  args.add("phi", phi, "volume occupancy of the base system");
  args.add("rhs", rhs, "guess columns per member per round (member m)");
  args.add("batch", batch, "jobs packed per serving batch (K)");
  args.add("capacity", capacity, "queue capacity; overflow rejects");
  args.add("max-attempts", max_attempts,
           "serving attempts before an evicted job fails for good");
  args.add("deadline", deadline,
           "per-job wall-clock budget in seconds (0: none)");
  args.add("kill-after", kill_after,
           "_Exit(9) once this many new results are computed "
           "(crash simulation for resume drills; 0: disabled)");
  args.add("journal", journal_path,
           "crash-safe job journal; rerun with the same path to resume");
  args.add("results", results_path, "write terminal results as JSONL");
  util::ObsCli obs_cli;
  obs_cli.add_to(args);
  util::FaultCli fault_cli;
  fault_cli.add_to(args);
  args.parse(argc, argv);
  obs_cli.apply();
  if (core::Status s = fault_cli.apply(); !s.is_ok()) {
    std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
    return 1;
  }

  core::SdConfig config;
  config.particles = static_cast<std::size_t>(particles);
  config.phi = phi;
  config.seed = 2024;

  ensemble::JobQueueOptions options;
  options.capacity = static_cast<std::size_t>(capacity);
  options.batch_size = static_cast<std::size_t>(batch);
  options.journal_path = journal_path;
  options.ensemble.rhs = static_cast<std::size_t>(rhs);

  ensemble::JobQueue queue(config, options);
  if (core::Status s = queue.open(); !s.is_ok()) {
    std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
    return 1;
  }

  // A journal with history defines the batch: resume it instead of
  // submitting fresh jobs (rerunning the same command line after a
  // crash must not double-submit).
  const bool resuming =
      !queue.results().empty() || queue.outstanding() > 0;
  // Counted before submitting: a rejection is a result too.
  const std::size_t resumed_results = queue.results().size();
  std::size_t rejected = 0;
  if (resuming) {
    std::fprintf(stdout,
                 "ensemble: resuming journal %s (%zu finished, %zu pending)\n",
                 journal_path.c_str(), queue.results().size(),
                 queue.outstanding());
  } else {
    for (int i = 0; i < jobs; ++i) {
      ensemble::JobSpec spec;
      spec.noise_seed = 1000 + static_cast<std::uint64_t>(i);
      spec.steps = static_cast<std::uint64_t>(steps);
      spec.deadline_seconds = deadline;
      spec.max_attempts = static_cast<std::uint32_t>(max_attempts);
      ensemble::Admission admission;
      if (core::Status s = queue.submit(spec, admission); !s.is_ok()) {
        std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
        return 1;
      }
      if (!admission.accepted) {
        ++rejected;
        std::fprintf(stdout, "job %llu rejected: %s\n",
                     static_cast<unsigned long long>(admission.id),
                     admission.reason.c_str());
      }
    }
  }

  while (queue.outstanding() > 0) {
    if (core::Status s = queue.run_batch(); !s.is_ok()) {
      std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
      return 1;
    }
    std::size_t computed = 0;
    for (const auto& r : queue.results()) {
      if (!r.resumed) ++computed;
    }
    if (kill_after > 0 && computed >= static_cast<std::size_t>(kill_after)) {
      // Simulated kill -9: no flushes, no destructors. Everything the
      // journal acknowledged must survive this.
      std::fprintf(stdout, "ensemble: simulated crash after %zu results\n",
                   computed);
      std::fflush(stdout);
      std::_Exit(9);
    }
  }

  const auto& results = queue.results();
  std::size_t completed = 0;
  std::size_t evicted = 0;
  std::size_t timed_out = 0;
  std::size_t rejected_results = 0;
  for (const auto& r : results) {
    switch (r.state) {
      case ensemble::JobState::kCompleted: ++completed; break;
      case ensemble::JobState::kEvicted: ++evicted; break;
      case ensemble::JobState::kTimedOut: ++timed_out; break;
      case ensemble::JobState::kRejected: ++rejected_results; break;
      default: break;
    }
  }
  if (!results_path.empty() && !write_results(results, results_path)) {
    return 1;
  }
  std::fprintf(stdout,
               "ensemble: served %zu jobs (completed %zu, evicted %zu, "
               "rejected %zu, timeout %zu), batches %zu, resumed %zu\n",
               results.size(), completed, evicted, rejected_results,
               timed_out, queue.batches_run(), resumed_results);
  return 0;
}
