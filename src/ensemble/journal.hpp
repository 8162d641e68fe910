// Crash-safe job journal for the ensemble serving queue.
//
// The queue's durability contract is job-level, not step-level: a
// daemon killed at any instant must restart without losing a finished
// job's result and without re-announcing one (no duplicates). Member
// trajectories themselves need no disk state — they are deterministic
// replays of (seed, step) — so the journal records only job lifecycle
// events, through the same binary framing and CRC-32 trailer as the
// checkpoint machinery (util/binary_io.hpp, util/checksum.hpp).
//
// On disk the journal is append-only:
//
//   "MRHSJRNL" | u32 version                         (file header)
//   u8 type | u32 payload size | payload | u32 CRC32 (per record)
//
// where the CRC covers the type byte and the payload. Appends are
// flushed and fsync'd before the caller observes success, so a record
// either fully lands or is a *torn tail*: replay() walks records until
// the first frame that is short or fails its CRC, discards everything
// from there on (reporting how many bytes were dropped), and treats
// the prefix as the truth. A submit without a matching final record
// simply re-runs — determinism makes the re-run produce the identical
// result, so at-least-once execution yields exactly-once results.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/status.hpp"

namespace mrhs::ensemble {

inline constexpr std::uint32_t kJournalVersion = 1;

/// Lifecycle of a served job. kPending/kRunning/kBackoff are in-memory
/// scheduling states; the last four are terminal and journaled.
enum class JobState : std::uint8_t {
  kPending = 0,
  kRunning,
  kBackoff,
  kCompleted,
  kEvicted,
  kRejected,
  kTimedOut,
};

[[nodiscard]] constexpr const char* to_string(JobState s) {
  switch (s) {
    case JobState::kPending: return "pending";
    case JobState::kRunning: return "running";
    case JobState::kBackoff: return "backoff";
    case JobState::kCompleted: return "completed";
    case JobState::kEvicted: return "evicted";
    case JobState::kRejected: return "rejected";
    case JobState::kTimedOut: return "timeout";
  }
  return "unknown";
}

[[nodiscard]] constexpr bool is_terminal(JobState s) {
  return s == JobState::kCompleted || s == JobState::kEvicted ||
         s == JobState::kRejected || s == JobState::kTimedOut;
}

/// What a client submits: a scenario of the shared base system.
struct JobSpec {
  /// Seed of the member's counter-keyed noise stream.
  std::uint64_t noise_seed = 1;
  /// Trajectory length in steps.
  std::uint64_t steps = 8;
  /// Member temperature; negative inherits the base config's kT.
  double kT = -1.0;
  /// Wall-clock budget from the job's first scheduled batch; 0 = none.
  double deadline_seconds = 0.0;
  /// Total serving attempts before an evicted job is failed for good;
  /// at most kMaxAttemptsLimit.
  std::uint32_t max_attempts = 3;
};

/// Largest admissible JobSpec::max_attempts. The retry backoff shifts a
/// 64-bit count by attempt - 1, so a larger budget could reach an
/// undefined shift; submit() rejects it and replay treats it as
/// corruption.
inline constexpr std::uint32_t kMaxAttemptsLimit = 64;

/// Terminal outcome of a job, as reported to clients and journaled.
struct JobResult {
  std::uint64_t id = 0;
  JobState state = JobState::kPending;
  std::uint64_t steps_done = 0;
  std::uint32_t rollbacks = 0;
  std::uint32_t attempts = 0;
  /// Mean squared displacement of the final configuration.
  double msd = 0.0;
  /// CRC-32 of the final particle positions (bitwise trajectory
  /// fingerprint; lets chaos drills compare runs without shipping the
  /// whole configuration).
  std::uint32_t positions_crc = 0;
  /// True when this result was recovered from the journal on restart
  /// rather than computed by this process.
  bool resumed = false;
};

/// Append-side handle. Every append_* persists (flush + fsync) before
/// returning ok, so a crash after a successful append cannot lose the
/// record.
class JobJournal {
 public:
  JobJournal() = default;
  ~JobJournal();
  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Open `path` for appending, writing the file header if the file is
  /// new or empty. Existing records are left untouched (replay them
  /// first via replay()).
  [[nodiscard]] core::Status open(const std::string& path);
  void close();
  [[nodiscard]] bool is_open() const { return file_ != nullptr; }

  [[nodiscard]] core::Status append_submit(std::uint64_t id,
                                           const JobSpec& spec);
  [[nodiscard]] core::Status append_retry(std::uint64_t id,
                                          std::uint32_t attempt);
  [[nodiscard]] core::Status append_final(const JobResult& result);

  /// Everything reconstructable from a journal file.
  struct Replay {
    /// Submissions in append order (id, spec).
    std::vector<std::pair<std::uint64_t, JobSpec>> submitted;
    /// Retry grants in append order (id, attempt count so far).
    std::vector<std::pair<std::uint64_t, std::uint32_t>> retries;
    /// Terminal results in append order (resumed = true on each).
    std::vector<JobResult> finals;
    /// Bytes discarded from a torn tail (0 for a clean file).
    std::uint64_t torn_bytes = 0;
  };

  /// Read `path` and rebuild the record stream. A missing file yields
  /// an empty Replay (nothing to resume). A torn tail is not an error:
  /// the damaged suffix is discarded and counted in `torn_bytes`. A
  /// bad file header is kCorruptData.
  [[nodiscard]] static core::Status replay(const std::string& path,
                                           Replay& out);

 private:
  [[nodiscard]] core::Status append_record(
      std::uint8_t type, const std::vector<std::uint8_t>& payload);

  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace mrhs::ensemble
