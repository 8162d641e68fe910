#include "ensemble/job_queue.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "obs/obs.hpp"
#include "util/fault_injection.hpp"
#include "util/timer.hpp"

namespace mrhs::ensemble {

JobQueue::JobQueue(const core::SdConfig& base, JobQueueOptions options)
    : base_(base), options_(std::move(options)) {
  if (options_.batch_size == 0) options_.batch_size = 1;
  clock_ = [timer = util::WallTimer()]() { return timer.seconds(); };
}

core::Status JobQueue::open() {
  if (options_.journal_path.empty()) return core::Status::ok();
  JobJournal::Replay replay;
  if (core::Status s = JobJournal::replay(options_.journal_path, replay);
      !s.is_ok()) {
    return s;
  }
  if (replay.torn_bytes > 0) {
    OBS_COUNTER_ADD("ensemble.journal.torn_tail_bytes",
                    static_cast<double>(replay.torn_bytes));
  }
  // Journaled finals are the truth: those jobs are done and must not
  // re-run (no duplicated completions).
  std::unordered_map<std::uint64_t, bool> finished;
  for (const JobResult& final : replay.finals) {
    finished[final.id] = true;
    results_.push_back(final);
  }
  // Attempt counts survive the crash, so a resumed job re-enters the
  // retry ladder where it left off rather than getting a fresh budget.
  std::unordered_map<std::uint64_t, std::uint32_t> attempts;
  for (const auto& [id, attempt] : replay.retries) {
    attempts[id] = std::max(attempts[id], attempt);
  }
  for (const auto& [id, spec] : replay.submitted) {
    next_id_ = std::max(next_id_, id + 1);
    if (finished.contains(id)) continue;
    // Submitted but never finalized: the crash interrupted it. Re-run
    // deterministically (no lost jobs).
    PendingJob job;
    job.id = id;
    job.spec = spec;
    job.attempts = attempts.contains(id) ? attempts[id] : 0;
    pending_.push_back(std::move(job));
    OBS_COUNTER_ADD("ensemble.queue.resumed_jobs", 1);
  }
  return journal_.open(options_.journal_path);
}

void JobQueue::record_result(JobResult result) {
  results_.push_back(std::move(result));
}

core::Status JobQueue::submit(const JobSpec& spec, Admission& admission) {
  admission = Admission{};
  admission.id = next_id_;
  // Chaos site: force the overflow path regardless of occupancy, so
  // drills can prove rejection is explicit without filling the queue.
  const bool forced = MRHS_FAULT_FIRED("ensemble.queue.overflow");
  if (forced) {
    admission.reason = "queue overflow (fault injection)";
  } else if (pending_.size() >= options_.capacity) {
    admission.reason =
        "queue full (capacity " + std::to_string(options_.capacity) + ")";
  } else if (spec.max_attempts > kMaxAttemptsLimit) {
    admission.reason = "max_attempts " + std::to_string(spec.max_attempts) +
                       " exceeds " + std::to_string(kMaxAttemptsLimit);
  }
  if (!admission.reason.empty()) {
    admission.accepted = false;
    OBS_COUNTER_ADD("ensemble.queue.rejected", 1);
    // Rejection is explicit: a terminal result, visible to pollers,
    // not a silent drop. It is synchronous and never admitted, so it
    // is not journaled.
    JobResult rejected;
    rejected.id = admission.id;
    rejected.state = JobState::kRejected;
    record_result(std::move(rejected));
    ++next_id_;
    return core::Status::ok();
  }
  if (journal_.is_open()) {
    // Durability before acknowledgement: the submit record lands (or
    // the whole submission fails) before the client sees "accepted".
    if (core::Status s = journal_.append_submit(admission.id, spec);
        !s.is_ok()) {
      admission.accepted = false;
      admission.reason = s.message();
      return s;
    }
  }
  PendingJob job;
  job.id = admission.id;
  job.spec = spec;
  pending_.push_back(std::move(job));
  admission.accepted = true;
  ++next_id_;
  OBS_COUNTER_ADD("ensemble.queue.submitted", 1);
  return core::Status::ok();
}

core::Status JobQueue::run_batch() {
  ++batches_;
  OBS_COUNTER_ADD("ensemble.queue.batches", 1);
  std::vector<std::size_t> scheduled;
  for (std::size_t i = 0;
       i < pending_.size() && scheduled.size() < options_.batch_size; ++i) {
    if (pending_[i].ready_batch < batches_) scheduled.push_back(i);
  }
  if (scheduled.empty()) return core::Status::ok();

  EnsembleRunner runner(base_, options_.ensemble);
  struct DeadlineEntry {
    double started_at = 0.0;
    double budget = 0.0;
  };
  std::unordered_map<std::uint64_t, DeadlineEntry> deadlines;
  for (const std::size_t i : scheduled) {
    PendingJob& job = pending_[i];
    if (job.started_at < 0.0) job.started_at = clock_();
    Scenario scenario;
    scenario.id = job.id;
    scenario.noise_seed = job.spec.noise_seed;
    scenario.kT = job.spec.kT;
    scenario.steps = static_cast<std::size_t>(job.spec.steps);
    static_cast<void>(runner.add_member(scenario));
    if (job.spec.deadline_seconds > 0.0) {
      deadlines[job.id] = {job.started_at, job.spec.deadline_seconds};
    }
  }
  runner.set_deadline_hook([this, deadlines](std::uint64_t id) {
    const auto it = deadlines.find(id);
    if (it == deadlines.end()) return false;
    return clock_() - it->second.started_at > it->second.budget;
  });

  const std::vector<MemberReport> reports = runner.run();

  core::Status journal_status = core::Status::ok();
  std::vector<std::uint64_t> done;
  for (const MemberReport& report : reports) {
    const auto it = std::find_if(
        pending_.begin(), pending_.end(),
        [&report](const PendingJob& j) { return j.id == report.id; });
    if (it == pending_.end()) continue;
    PendingJob& job = *it;
    ++job.attempts;

    if (report.state == MemberState::kEvicted &&
        job.attempts < job.spec.max_attempts) {
      // Eviction suggests a transient fault that outran the in-batch
      // ladder; grant a retry after an exponential batch backoff.
      job.ready_batch =
          batches_ + (std::size_t{1} << (job.attempts - 1)) *
                         options_.backoff_batches;
      OBS_COUNTER_ADD("ensemble.queue.retries", 1);
      if (journal_.is_open()) {
        if (core::Status s = journal_.append_retry(job.id, job.attempts);
            !s.is_ok() && journal_status.is_ok()) {
          journal_status = s;
        }
      }
      continue;
    }

    JobResult result;
    result.id = report.id;
    result.state = report.state == MemberState::kCompleted
                       ? JobState::kCompleted
                       : (report.state == MemberState::kTimedOut
                              ? JobState::kTimedOut
                              : JobState::kEvicted);
    result.steps_done = report.steps_done;
    result.rollbacks = static_cast<std::uint32_t>(report.stats.rollbacks);
    result.attempts = job.attempts;
    result.msd = report.msd;
    result.positions_crc = report.positions_crc;
    if (journal_.is_open()) {
      // Final-before-visible: the result is durable before pollers can
      // observe it, so a crash cannot un-complete a completed job.
      if (core::Status s = journal_.append_final(result);
          !s.is_ok() && journal_status.is_ok()) {
        journal_status = s;
      }
    }
    record_result(std::move(result));
    done.push_back(job.id);
  }

  pending_.erase(
      std::remove_if(pending_.begin(), pending_.end(),
                     [&done](const PendingJob& j) {
                       return std::find(done.begin(), done.end(), j.id) !=
                              done.end();
                     }),
      pending_.end());
  return journal_status;
}

core::Status JobQueue::drain() {
  while (!pending_.empty()) {
    if (core::Status s = run_batch(); !s.is_ok()) return s;
  }
  return core::Status::ok();
}

}  // namespace mrhs::ensemble
