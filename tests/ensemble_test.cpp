// Ensemble serving: per-member containment, membership invariance,
// repacking, deadlines, backpressure, and journal durability.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "core/sd_simulation.hpp"
#include "ensemble/ensemble_runner.hpp"
#include "ensemble/job_queue.hpp"
#include "ensemble/journal.hpp"

namespace mrhs {
namespace {

core::SdConfig small_config() {
  core::SdConfig config;
  config.particles = 60;
  config.phi = 0.3;
  config.seed = 2024;
  return config;
}

ensemble::EnsembleOptions small_options() {
  ensemble::EnsembleOptions options;
  options.rhs = 3;
  return options;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// --- EnsembleRunner ---------------------------------------------------

TEST(EnsembleRunnerTest, RunsAllMembersToCompletion) {
  ensemble::EnsembleRunner runner(small_config(), small_options());
  for (std::uint64_t seed = 11; seed < 14; ++seed) {
    ensemble::Scenario s;
    s.noise_seed = seed;
    s.steps = 5;
    static_cast<void>(runner.add_member(s));
  }
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.state, ensemble::MemberState::kCompleted);
    EXPECT_EQ(r.steps_done, 5u);
    EXPECT_EQ(r.stats.rollbacks, 0u);
    EXPECT_TRUE(std::isfinite(r.msd));
    EXPECT_GT(r.msd, 0.0);
  }
  // Distinct noise seeds must produce distinct trajectories.
  EXPECT_NE(reports[0].positions_crc, reports[1].positions_crc);
  EXPECT_GT(runner.rounds(), 0u);
}

// Exact assembly, and incremental assembly at 0.05 a: the latter
// carries assembly-engine state through each round's snapshot and its
// calibrating first step.
class EnsembleAssemblyTest : public ::testing::TestWithParam<double> {
 protected:
  [[nodiscard]] core::SdConfig config() const {
    core::SdConfig c = small_config();
    c.assembly_tolerance = GetParam();
    return c;
  }
};

INSTANTIATE_TEST_SUITE_P(
    AssemblyTolerance, EnsembleAssemblyTest, ::testing::Values(0.0, 0.05),
    [](const ::testing::TestParamInfo<double>& tolerance) {
      return std::string(tolerance.param == 0.0 ? "exact" : "incremental");
    });

// The tentpole invariant: a member's trajectory is bitwise invariant
// to who else is in the pack. Run seed 42 solo and packed with two
// neighbors; final positions must agree through the CRC fingerprint.
TEST_P(EnsembleAssemblyTest, MemberTrajectoryInvariantToMembership) {
  const auto run_with = [this](std::vector<std::uint64_t> seeds) {
    ensemble::EnsembleRunner runner(config(), small_options());
    for (const std::uint64_t seed : seeds) {
      ensemble::Scenario s;
      s.noise_seed = seed;
      s.steps = 7;  // not a multiple of rhs: exercises a ragged round
      static_cast<void>(runner.add_member(s));
    }
    return runner.run();
  };
  const auto solo = run_with({42});
  const auto packed = run_with({17, 42, 99});
  ASSERT_EQ(solo.size(), 1u);
  ASSERT_EQ(packed.size(), 3u);
  EXPECT_EQ(solo[0].positions_crc, packed[1].positions_crc);
  EXPECT_EQ(solo[0].msd, packed[1].msd);
}

// Members of different lengths: the pack narrows as short members
// complete (a repack), and long members are unaffected.
TEST(EnsembleRunnerTest, RepackOnCompletionKeepsLongMembersExact) {
  const auto run_with = [](std::vector<std::size_t> lengths) {
    ensemble::EnsembleRunner runner(small_config(), small_options());
    std::uint64_t seed = 31;
    for (const std::size_t steps : lengths) {
      ensemble::Scenario s;
      s.noise_seed = seed++;
      s.steps = steps;
      static_cast<void>(runner.add_member(s));
    }
    return runner.run();
  };
  const auto mixed = run_with({3, 9});
  ASSERT_EQ(mixed.size(), 2u);
  EXPECT_EQ(mixed[0].state, ensemble::MemberState::kCompleted);
  EXPECT_EQ(mixed[0].steps_done, 3u);
  EXPECT_EQ(mixed[1].steps_done, 9u);
  // The long member (seed 32) matches a solo run of its own seed.
  ensemble::EnsembleRunner runner(small_config(), small_options());
  ensemble::Scenario s;
  s.noise_seed = 32;
  s.steps = 9;
  static_cast<void>(runner.add_member(s));
  const auto solo32 = runner.run();
  ASSERT_EQ(solo32.size(), 1u);
  EXPECT_EQ(mixed[1].positions_crc, solo32[0].positions_crc);
}

// Silent corruption via the post-step hook: the poisoned member rolls
// back and replays bitwise; the healthy neighbor never notices.
TEST_P(EnsembleAssemblyTest, TransientCorruptionContainedAndBitwise) {
  const auto baseline = [this] {
    ensemble::EnsembleRunner runner(config(), small_options());
    ensemble::Scenario a;
    a.noise_seed = 7;
    a.steps = 6;
    static_cast<void>(runner.add_member(a));
    ensemble::Scenario b;
    b.noise_seed = 8;
    b.steps = 6;
    static_cast<void>(runner.add_member(b));
    return runner.run();
  }();

  ensemble::EnsembleRunner runner(config(), small_options());
  ensemble::Scenario a;
  a.noise_seed = 7;
  a.steps = 6;
  const std::uint64_t victim = runner.add_member(a);
  ensemble::Scenario b;
  b.noise_seed = 8;
  b.steps = 6;
  static_cast<void>(runner.add_member(b));
  bool poisoned = false;
  runner.set_post_step_hook([&poisoned, victim](std::uint64_t id,
                                                std::size_t step,
                                                sd::ParticleSystem& system) {
    if (id == victim && step == 2 && !poisoned) {
      poisoned = true;
      system.positions()[0].x = std::numeric_limits<double>::quiet_NaN();
    }
  });
  const auto reports = runner.run();
  EXPECT_TRUE(poisoned);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].state, ensemble::MemberState::kCompleted);
  EXPECT_EQ(reports[1].state, ensemble::MemberState::kCompleted);
  // One rollback for the victim, none for the bystander, and both end
  // bitwise identical to the fault-free ensemble.
  EXPECT_EQ(reports[0].stats.rollbacks, 1u);
  EXPECT_EQ(reports[0].last_fault, core::HealthCheck::kNonFinite);
  EXPECT_EQ(reports[1].stats.rollbacks, 0u);
  EXPECT_EQ(reports[0].positions_crc, baseline[0].positions_crc);
  EXPECT_EQ(reports[1].positions_crc, baseline[1].positions_crc);
}

// Persistent corruption climbs the full ladder — replay, halve dt,
// evict — while the neighbor finishes untouched and the pack narrows.
TEST(EnsembleRunnerTest, PersistentCorruptionEvictsAndRepacks) {
  const auto baseline = [] {
    ensemble::EnsembleRunner runner(small_config(), small_options());
    ensemble::Scenario b;
    b.noise_seed = 8;
    b.steps = 6;
    static_cast<void>(runner.add_member(b));
    return runner.run();
  }();

  ensemble::EnsembleRunner runner(small_config(), small_options());
  ensemble::Scenario a;
  a.noise_seed = 7;
  a.steps = 6;
  const std::uint64_t victim = runner.add_member(a);
  ensemble::Scenario b;
  b.noise_seed = 8;
  b.steps = 6;
  static_cast<void>(runner.add_member(b));
  int poisons = 0;
  runner.set_post_step_hook([&poisons, victim](std::uint64_t id,
                                               std::size_t step,
                                               sd::ParticleSystem& system) {
    static_cast<void>(step);
    if (id == victim) {
      ++poisons;
      system.positions()[0].x = std::numeric_limits<double>::quiet_NaN();
    }
  });
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 2u);
  // Ladder: replay (1), halve dt + replay (2), evict (3).
  EXPECT_EQ(reports[0].state, ensemble::MemberState::kEvicted);
  EXPECT_EQ(reports[0].stats.rollbacks, 3u);
  EXPECT_EQ(reports[0].stats.degradations, 1u);
  EXPECT_EQ(reports[0].steps_done, 0u);
  EXPECT_EQ(poisons, 3);
  // The batch survives: the neighbor completes bitwise fault-free,
  // and the pack narrowed once the victim left.
  EXPECT_EQ(reports[1].state, ensemble::MemberState::kCompleted);
  EXPECT_EQ(reports[1].stats.rollbacks, 0u);
  EXPECT_EQ(reports[1].positions_crc, baseline[0].positions_crc);
  EXPECT_GE(runner.repacks(), 1u);
}

// Two strikes in round 1 halve the victim's dt; its next round is
// clean, and a clean round restores the dt (one recovery promotion).
TEST(EnsembleRunnerTest, CleanRoundRestoresHalvedDt) {
  ensemble::EnsembleRunner runner(small_config(), small_options());
  ensemble::Scenario a;
  a.noise_seed = 7;
  a.steps = 6;  // two rounds of rhs = 3
  static_cast<void>(runner.add_member(a));
  int poisons = 0;
  runner.set_post_step_hook([&poisons](std::uint64_t, std::size_t step,
                                       sd::ParticleSystem& system) {
    if (step == 1 && poisons < 2) {
      ++poisons;
      system.positions()[0].x = std::numeric_limits<double>::quiet_NaN();
    }
  });
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(poisons, 2);
  EXPECT_EQ(reports[0].state, ensemble::MemberState::kCompleted);
  EXPECT_EQ(reports[0].steps_done, 6u);
  EXPECT_EQ(reports[0].stats.rollbacks, 2u);
  EXPECT_EQ(reports[0].stats.degradations, 1u);
  EXPECT_EQ(reports[0].stats.recovery_promotions, 1u);
}

// The lifetime budget binds even when no round sees a repeat strike:
// one transient strike per round spends a rollback each, and the
// strike that finds the budget spent evicts without counting one.
TEST(EnsembleRunnerTest, StrikeEveryRoundEvictsWhenBudgetIsSpent) {
  ensemble::EnsembleRunner runner(small_config(), small_options());
  ensemble::Scenario a;
  a.noise_seed = 7;
  a.steps = 24;  // eight rounds of rhs = 3
  static_cast<void>(runner.add_member(a));
  std::vector<bool> struck(a.steps, false);
  runner.set_post_step_hook([&struck](std::uint64_t, std::size_t step,
                                      sd::ParticleSystem& system) {
    // Poison the first pass through each round's first step.
    if (step % 3 == 0 && !struck[step]) {
      struck[step] = true;
      system.positions()[0].x = std::numeric_limits<double>::quiet_NaN();
    }
  });
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].state, ensemble::MemberState::kEvicted);
  EXPECT_EQ(ensemble::kMaxMemberRollbacks, 6u);
  EXPECT_EQ(reports[0].stats.rollbacks, 6u);
  EXPECT_EQ(reports[0].stats.degradations, 0u);
  // Evicted at the start of round 7, parked at its snapshot.
  EXPECT_EQ(reports[0].steps_done, 18u);
}

TEST(EnsembleRunnerTest, DeadlineHookRetiresMember) {
  ensemble::EnsembleRunner runner(small_config(), small_options());
  ensemble::Scenario slow;
  slow.noise_seed = 5;
  slow.steps = 8;
  const std::uint64_t slow_id = runner.add_member(slow);
  ensemble::Scenario fast;
  fast.noise_seed = 6;
  fast.steps = 8;
  static_cast<void>(runner.add_member(fast));
  runner.set_deadline_hook(
      [slow_id](std::uint64_t id) { return id == slow_id; });
  const auto reports = runner.run();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].state, ensemble::MemberState::kTimedOut);
  EXPECT_EQ(reports[0].steps_done, 0u);
  EXPECT_EQ(reports[1].state, ensemble::MemberState::kCompleted);
  EXPECT_EQ(reports[1].steps_done, 8u);
}

// --- JobJournal -------------------------------------------------------

TEST(JobJournalTest, RoundTripsRecords) {
  const std::string path = temp_path("journal_roundtrip.jrnl");
  std::remove(path.c_str());
  {
    ensemble::JobJournal journal;
    ASSERT_TRUE(journal.open(path).is_ok());
    ensemble::JobSpec spec;
    spec.noise_seed = 77;
    spec.steps = 12;
    spec.deadline_seconds = 1.5;
    spec.max_attempts = 5;
    ASSERT_TRUE(journal.append_submit(3, spec).is_ok());
    ASSERT_TRUE(journal.append_retry(3, 1).is_ok());
    ensemble::JobResult result;
    result.id = 3;
    result.state = ensemble::JobState::kCompleted;
    result.steps_done = 12;
    result.rollbacks = 2;
    result.attempts = 2;
    result.msd = 0.25;
    result.positions_crc = 0xdeadbeef;
    ASSERT_TRUE(journal.append_final(result).is_ok());
  }
  ensemble::JobJournal::Replay replay;
  ASSERT_TRUE(ensemble::JobJournal::replay(path, replay).is_ok());
  EXPECT_EQ(replay.torn_bytes, 0u);
  ASSERT_EQ(replay.submitted.size(), 1u);
  EXPECT_EQ(replay.submitted[0].first, 3u);
  EXPECT_EQ(replay.submitted[0].second.noise_seed, 77u);
  EXPECT_EQ(replay.submitted[0].second.steps, 12u);
  EXPECT_DOUBLE_EQ(replay.submitted[0].second.deadline_seconds, 1.5);
  EXPECT_EQ(replay.submitted[0].second.max_attempts, 5u);
  ASSERT_EQ(replay.retries.size(), 1u);
  EXPECT_EQ(replay.retries[0].second, 1u);
  ASSERT_EQ(replay.finals.size(), 1u);
  EXPECT_EQ(replay.finals[0].state, ensemble::JobState::kCompleted);
  EXPECT_EQ(replay.finals[0].positions_crc, 0xdeadbeefu);
  EXPECT_TRUE(replay.finals[0].resumed);
}

TEST(JobJournalTest, MissingFileIsEmptyReplay) {
  ensemble::JobJournal::Replay replay;
  ASSERT_TRUE(
      ensemble::JobJournal::replay(temp_path("nonexistent.jrnl"), replay)
          .is_ok());
  EXPECT_TRUE(replay.submitted.empty());
  EXPECT_TRUE(replay.finals.empty());
}

// A torn tail (simulating a crash mid-append) is discarded; the valid
// prefix survives intact.
TEST(JobJournalTest, TornTailDiscardedPrefixSurvives) {
  const std::string path = temp_path("journal_torn.jrnl");
  std::remove(path.c_str());
  {
    ensemble::JobJournal journal;
    ASSERT_TRUE(journal.open(path).is_ok());
    ensemble::JobSpec spec;
    ASSERT_TRUE(journal.append_submit(1, spec).is_ok());
    ASSERT_TRUE(journal.append_submit(2, spec).is_ok());
  }
  // Tear the last record by chopping 7 bytes off the file.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 7);
  ASSERT_EQ(::truncate(path.c_str(), size - 7), 0);

  ensemble::JobJournal::Replay replay;
  ASSERT_TRUE(ensemble::JobJournal::replay(path, replay).is_ok());
  ASSERT_EQ(replay.submitted.size(), 1u);
  EXPECT_EQ(replay.submitted[0].first, 1u);
  EXPECT_GT(replay.torn_bytes, 0u);
}

TEST(JobJournalTest, BadMagicIsCorruptData) {
  const std::string path = temp_path("journal_badmagic.jrnl");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("NOTAJRNLxxxx", f);
  std::fclose(f);
  ensemble::JobJournal::Replay replay;
  const core::Status s = ensemble::JobJournal::replay(path, replay);
  EXPECT_FALSE(s.is_ok());
}

// A submit record asking for more attempts than the retry backoff can
// count is not something submit() ever journals: replay rejects it.
TEST(JobJournalTest, OversizedMaxAttemptsIsCorruptData) {
  const std::string path = temp_path("journal_max_attempts.jrnl");
  std::remove(path.c_str());
  {
    ensemble::JobJournal journal;
    ASSERT_TRUE(journal.open(path).is_ok());
    ensemble::JobSpec spec;
    spec.max_attempts = ensemble::kMaxAttemptsLimit + 1;
    ASSERT_TRUE(journal.append_submit(1, spec).is_ok());
  }
  ensemble::JobJournal::Replay replay;
  const core::Status s = ensemble::JobJournal::replay(path, replay);
  EXPECT_EQ(s.code(), core::StatusCode::kCorruptData);
}

// --- JobQueue ---------------------------------------------------------

TEST(JobQueueTest, ServesBatchAndMatchesRunner) {
  ensemble::JobQueueOptions options;
  options.batch_size = 3;
  options.ensemble = small_options();
  ensemble::JobQueue queue(small_config(), options);
  ASSERT_TRUE(queue.open().is_ok());
  for (std::uint64_t seed = 11; seed < 14; ++seed) {
    ensemble::JobSpec spec;
    spec.noise_seed = seed;
    spec.steps = 5;
    ensemble::Admission admission;
    ASSERT_TRUE(queue.submit(spec, admission).is_ok());
    ASSERT_TRUE(admission.accepted);
  }
  ASSERT_TRUE(queue.drain().is_ok());
  ASSERT_EQ(queue.results().size(), 3u);
  for (const auto& r : queue.results()) {
    EXPECT_EQ(r.state, ensemble::JobState::kCompleted);
    EXPECT_EQ(r.steps_done, 5u);
    EXPECT_EQ(r.attempts, 1u);
    EXPECT_FALSE(r.resumed);
  }
}

TEST(JobQueueTest, BackpressureRejectsExplicitly) {
  ensemble::JobQueueOptions options;
  options.capacity = 2;
  options.ensemble = small_options();
  ensemble::JobQueue queue(small_config(), options);
  ASSERT_TRUE(queue.open().is_ok());
  ensemble::JobSpec spec;
  spec.steps = 2;
  ensemble::Admission a1;
  ensemble::Admission a2;
  ensemble::Admission a3;
  ASSERT_TRUE(queue.submit(spec, a1).is_ok());
  ASSERT_TRUE(queue.submit(spec, a2).is_ok());
  ASSERT_TRUE(queue.submit(spec, a3).is_ok());
  EXPECT_TRUE(a1.accepted);
  EXPECT_TRUE(a2.accepted);
  EXPECT_FALSE(a3.accepted);
  EXPECT_FALSE(a3.reason.empty());
  // The rejection is a visible terminal result, not a silent drop.
  ASSERT_EQ(queue.results().size(), 1u);
  EXPECT_EQ(queue.results()[0].id, a3.id);
  EXPECT_EQ(queue.results()[0].state, ensemble::JobState::kRejected);
  EXPECT_EQ(queue.outstanding(), 2u);
}

TEST(JobQueueTest, OversizedMaxAttemptsRejectedUnjournaled) {
  const std::string path = temp_path("queue_max_attempts.jrnl");
  std::remove(path.c_str());
  ensemble::JobQueueOptions options;
  options.journal_path = path;
  options.ensemble = small_options();
  ensemble::JobQueue queue(small_config(), options);
  ASSERT_TRUE(queue.open().is_ok());
  ensemble::JobSpec spec;
  spec.max_attempts = 65;
  ensemble::Admission admission;
  ASSERT_TRUE(queue.submit(spec, admission).is_ok());
  EXPECT_FALSE(admission.accepted);
  EXPECT_FALSE(admission.reason.empty());
  ASSERT_EQ(queue.results().size(), 1u);
  EXPECT_EQ(queue.results()[0].id, admission.id);
  EXPECT_EQ(queue.results()[0].state, ensemble::JobState::kRejected);
  EXPECT_EQ(queue.outstanding(), 0u);

  ensemble::JobJournal::Replay replay;
  ASSERT_TRUE(ensemble::JobJournal::replay(path, replay).is_ok());
  EXPECT_TRUE(replay.submitted.empty());
  EXPECT_TRUE(replay.retries.empty());
  EXPECT_TRUE(replay.finals.empty());
}

TEST(JobQueueTest, DeadlineExpiryTimesOut) {
  ensemble::JobQueueOptions options;
  options.ensemble = small_options();
  ensemble::JobQueue queue(small_config(), options);
  ASSERT_TRUE(queue.open().is_ok());
  // Fake clock: each reading advances one second, so any positive
  // sub-second deadline has expired by the first round boundary.
  double now = 0.0;
  queue.set_clock([&now]() { return now += 1.0; });
  ensemble::JobSpec doomed;
  doomed.noise_seed = 3;
  doomed.steps = 8;
  doomed.deadline_seconds = 1e-9;
  ensemble::JobSpec healthy;
  healthy.noise_seed = 4;
  healthy.steps = 4;
  ensemble::Admission a1;
  ensemble::Admission a2;
  ASSERT_TRUE(queue.submit(doomed, a1).is_ok());
  ASSERT_TRUE(queue.submit(healthy, a2).is_ok());
  ASSERT_TRUE(queue.drain().is_ok());
  ASSERT_EQ(queue.results().size(), 2u);
  const auto& timed_out = queue.results()[0].id == a1.id
                              ? queue.results()[0]
                              : queue.results()[1];
  const auto& completed = queue.results()[0].id == a1.id
                              ? queue.results()[1]
                              : queue.results()[0];
  EXPECT_EQ(timed_out.state, ensemble::JobState::kTimedOut);
  EXPECT_EQ(timed_out.steps_done, 0u);
  EXPECT_EQ(completed.state, ensemble::JobState::kCompleted);
  EXPECT_EQ(completed.steps_done, 4u);
}

TEST(JobQueueTest, JournalResumeSkipsFinishedJobs) {
  const std::string path = temp_path("queue_resume.jrnl");
  std::remove(path.c_str());
  std::uint64_t id1 = 0;
  std::uint64_t id2 = 0;
  {
    ensemble::JobQueueOptions options;
    options.batch_size = 1;  // one job per batch, so we can stop midway
    options.journal_path = path;
    options.ensemble = small_options();
    ensemble::JobQueue queue(small_config(), options);
    ASSERT_TRUE(queue.open().is_ok());
    ensemble::JobSpec spec;
    spec.noise_seed = 21;
    spec.steps = 3;
    ensemble::Admission a1;
    ASSERT_TRUE(queue.submit(spec, a1).is_ok());
    spec.noise_seed = 22;
    ensemble::Admission a2;
    ASSERT_TRUE(queue.submit(spec, a2).is_ok());
    id1 = a1.id;
    id2 = a2.id;
    ASSERT_TRUE(queue.run_batch().is_ok());
    ASSERT_EQ(queue.results().size(), 1u);
    // Queue destroyed here with job 2 pending: the "crash".
  }
  ensemble::JobQueueOptions options;
  options.journal_path = path;
  options.ensemble = small_options();
  ensemble::JobQueue queue(small_config(), options);
  ASSERT_TRUE(queue.open().is_ok());
  // Job 1's final was journaled: it resumes as a result, not a re-run.
  ASSERT_EQ(queue.results().size(), 1u);
  EXPECT_EQ(queue.results()[0].id, id1);
  EXPECT_TRUE(queue.results()[0].resumed);
  EXPECT_EQ(queue.outstanding(), 1u);
  ASSERT_TRUE(queue.drain().is_ok());
  ASSERT_EQ(queue.results().size(), 2u);
  EXPECT_EQ(queue.results()[1].id, id2);
  EXPECT_FALSE(queue.results()[1].resumed);
  EXPECT_EQ(queue.results()[1].state, ensemble::JobState::kCompleted);
}

}  // namespace
}  // namespace mrhs
