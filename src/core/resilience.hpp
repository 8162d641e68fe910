// Step-level resilience policy: rollback + bounded degradation.
//
// The ResilientRunner wraps the MRHS algorithm with the recovery loop
// a long unattended run needs. It composes three existing mechanisms —
// the post-step health monitor (core/health.hpp), the algorithms'
// bitwise export_state()/import_state() (the checkpoint machinery,
// used here for in-memory rolling snapshots every K steps), and the
// MRHS chunk-width / step-size knobs — into one policy:
//
//   corrupt verdict  -> roll back to the last snapshot and replay.
//                       The first corruption at a snapshot epoch is a
//                       plain retry: a transient fault (the common
//                       case) replays bitwise identically to a run
//                       that never faulted. Corruption that *repeats*
//                       at the same epoch escalates one rung of the
//                       degradation ladder per extra rollback:
//                         1. halve the MRHS chunk width m
//                         2. fall back to the original single-vector
//                            algorithm (no block kernels at all)
//                         3. halve the time step
//   degraded verdict -> count it and hold the recovery clock; no
//                       rollback (the state is usable).
//   clean streak     -> after `recovery_steps` consecutive ok steps,
//                       promote one rung back toward full MRHS.
//
// Rollbacks are budgeted (`max_rollbacks`); exhausting the budget sets
// RunStats::resilience_gave_up and stops the run at the last good
// snapshot rather than integrating garbage. Every event lands in
// RunStats and the resilience.* observability counters.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "core/health.hpp"
#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"

namespace mrhs::core {

struct ResilienceOptions {
  /// Steps between in-memory snapshots (the rollback grain).
  std::size_t snapshot_every = 16;
  /// Total rollback budget for the runner's lifetime.
  std::size_t max_rollbacks = 8;
  /// Consecutive clean steps required to promote one ladder rung.
  std::size_t recovery_steps = 32;
  HealthConfig health{};
};

/// Degradation rungs, mildest first. kFull runs the configured MRHS
/// algorithm untouched.
enum class DegradationLevel : std::uint8_t {
  kFull = 0,
  kHalvedRhs,
  kScalarFallback,
  kShrunkDt,
};

[[nodiscard]] constexpr const char* to_string(DegradationLevel level) {
  switch (level) {
    case DegradationLevel::kFull: return "full";
    case DegradationLevel::kHalvedRhs: return "halved_rhs";
    case DegradationLevel::kScalarFallback: return "scalar_fallback";
    case DegradationLevel::kShrunkDt: return "shrunk_dt";
  }
  return "unknown";
}

class ResilientRunner {
 public:
  /// The runner drives `alg` one step at a time; `sim` must be the
  /// simulation `alg` was built on. Neither is owned.
  ResilientRunner(SdSimulation& sim, MrhsAlgorithm& alg,
                  ResilienceOptions options = {});

  /// Advance `count` steps with health checking, rollback, and the
  /// degradation ladder. May stop early only when the rollback budget
  /// is exhausted (stats.resilience_gave_up). Sets the algorithm's
  /// chunk horizon if the caller has not already pinned one.
  [[nodiscard]] RunStats run(std::size_t count);

  /// Test seam: invoked after every completed step, *before* the
  /// health check — the place to model silent state corruption that
  /// no fault-injection build is needed for.
  void set_post_step_hook(std::function<void(std::size_t step)> hook) {
    post_step_hook_ = std::move(hook);
  }

  [[nodiscard]] DegradationLevel level() const { return level_; }
  [[nodiscard]] bool gave_up() const { return gave_up_; }
  [[nodiscard]] const StepHealthMonitor& monitor() const { return monitor_; }
  /// Step index of the last rolling snapshot (the rollback target).
  [[nodiscard]] std::size_t snapshot_step() const;

 private:
  struct Snapshot {
    std::size_t step = 0;
    SdSimulation::State state;
    MrhsState alg;
  };

  void take_snapshot();
  /// Restore the last snapshot (state only — ladder level and dt are
  /// policy, not trajectory) and drop the step records past it.
  void restore_snapshot(RunStats& stats);
  /// Spend one rollback: restore the last snapshot and escalate when
  /// the corruption repeats within its epoch. True if the budget
  /// allowed it.
  bool roll_back(RunStats& stats);
  void escalate(RunStats& stats);
  void promote(RunStats& stats);
  /// One step at the current degradation level, merged into `stats`.
  void step_once(RunStats& stats);

  SdSimulation* sim_;
  MrhsAlgorithm* alg_;
  ResilienceOptions options_;
  StepHealthMonitor monitor_;
  std::function<void(std::size_t)> post_step_hook_;

  std::optional<Snapshot> snapshot_;
  DegradationLevel level_ = DegradationLevel::kFull;
  /// m and dt to restore when the ladder promotes back up.
  std::size_t base_rhs_;
  double base_dt_;
  /// Scalar-fallback engine, created on first use, kept in lockstep
  /// with the MRHS cursor while active.
  std::optional<OriginalAlgorithm> scalar_;
  std::size_t rollbacks_spent_ = 0;
  /// Rollbacks caused by the *current* snapshot epoch; >1 means the
  /// corruption is not transient and the ladder must escalate.
  std::size_t epoch_rollbacks_ = 0;
  std::size_t clean_streak_ = 0;
  bool gave_up_ = false;
};

}  // namespace mrhs::core
