// Crash-safe serving queue in front of the EnsembleRunner.
//
// The queue turns the batch-oriented runner into a job server with
// explicit failure semantics:
//
//   * Bounded admission: `capacity` outstanding jobs. Overflow is an
//     explicit, synchronous rejection (Admission.accepted = false) —
//     never a silent drop. The "ensemble.queue.overflow" fault site
//     forces this path in chaos drills.
//   * Batching: run_batch() packs up to `batch_size` ready jobs into
//     one EnsembleRunner, so co-scheduled jobs share block-kernel
//     matrix traffic.
//   * Deadlines: each job's wall-clock budget starts at its first
//     scheduled batch; the runner's deadline hook retires it between
//     rounds once the budget is spent. Timed-out jobs are terminal
//     (the deadline has passed; retrying cannot help).
//   * Retry with backoff: a job evicted by the containment ladder
//     (transient-fault suspicion) is re-queued up to `max_attempts`
//     times, waiting 2^(attempt-1) * backoff_batches batches between
//     tries. Backoff is counted in batches, not seconds, so scheduling
//     is deterministic under test. A spec asking for more than
//     kMaxAttemptsLimit attempts is rejected like an overflow.
//   * Durability: every submission, retry grant, and terminal result
//     is appended to the JobJournal before the caller observes it. A
//     killed daemon reopens the journal, reports journaled finals as
//     resumed results, and re-runs journaled submissions that never
//     reached a final — determinism makes the re-run bitwise, so
//     at-least-once execution yields exactly-once results. A journal
//     append failure is treated as fatal (the error propagates so the
//     daemon can crash and resume), never papered over.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sd_simulation.hpp"
#include "core/status.hpp"
#include "ensemble/ensemble_runner.hpp"
#include "ensemble/journal.hpp"

namespace mrhs::ensemble {

struct JobQueueOptions {
  /// Maximum outstanding (not yet terminal) jobs; submissions past
  /// this are rejected.
  std::size_t capacity = 64;
  /// Jobs packed into one EnsembleRunner per batch (the serving K).
  std::size_t batch_size = 4;
  /// Base retry delay in batches; attempt a waits
  /// 2^(a-1) * backoff_batches batches.
  std::size_t backoff_batches = 1;
  /// Journal file; empty runs the queue without durability.
  std::string journal_path;
  EnsembleOptions ensemble{};
};

/// Synchronous verdict on a submission.
struct Admission {
  bool accepted = false;
  std::uint64_t id = 0;
  std::string reason;
};

class JobQueue {
 public:
  JobQueue(const core::SdConfig& base, JobQueueOptions options);

  /// Open (and replay) the journal when one is configured. Journaled
  /// terminal results surface in results() with resumed = true;
  /// journaled submissions without a final re-enter the pending set
  /// with their attempt counts restored. Must be called before
  /// submit()/run_batch() when journal_path is set.
  [[nodiscard]] core::Status open();

  /// Admit a job (journaling the submission) or reject it (queue full,
  /// or max_attempts above kMaxAttemptsLimit). A not-ok status means
  /// the journal failed — the job was NOT admitted and the queue should
  /// be treated as crashed.
  [[nodiscard]] core::Status submit(const JobSpec& spec, Admission& admission);

  /// Run one batch of ready jobs through a shared EnsembleRunner.
  /// Advances the batch clock even when every pending job is in
  /// backoff (a batch "passes"). Not-ok only on journal failure.
  [[nodiscard]] core::Status run_batch();

  /// run_batch() until no job is pending.
  [[nodiscard]] core::Status drain();

  [[nodiscard]] std::size_t outstanding() const { return pending_.size(); }
  [[nodiscard]] std::size_t batches_run() const { return batches_; }
  /// Terminal results in completion order (journal-resumed first).
  [[nodiscard]] const std::vector<JobResult>& results() const {
    return results_;
  }

  /// Monotonic-seconds source for deadlines; tests substitute a fake.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }

 private:
  struct PendingJob {
    std::uint64_t id = 0;
    JobSpec spec;
    std::uint32_t attempts = 0;
    /// First batch index this job may be scheduled in (backoff).
    std::size_t ready_batch = 0;
    /// Clock reading at first scheduling; negative = not yet started.
    double started_at = -1.0;
  };

  void record_result(JobResult result);

  core::SdConfig base_;
  JobQueueOptions options_;
  JobJournal journal_;
  std::vector<PendingJob> pending_;
  std::vector<JobResult> results_;
  std::size_t batches_ = 0;
  std::uint64_t next_id_ = 1;
  std::function<double()> clock_;
};

}  // namespace mrhs::ensemble
