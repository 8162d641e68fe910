// Step-level resilience: one containment policy, two runners.
//
// ContainmentLadder is the policy. An epoch runs from one rollback
// snapshot to the next; a strike is one corrupt health verdict (or, in
// the ensemble, one poisoned RHS caught by the pack-stage firewall); a
// rung is one step down a runner's degradation ladder. A strike
// restores the snapshot, then:
//
//   budget spent    -> give up, counting no rollback;
//   first in epoch  -> count a rollback and replay at the current rung
//                      (bitwise for a transient fault: the noise is
//                      counter-keyed);
//   repeat in epoch -> count a rollback, escalate one rung and replay,
//                      or give up when already on the last rung.
//
// An epoch without a rollback promotes one rung. Degraded verdicts do
// not move the ladder. Events land in RunStats and resilience.*.
//
// ResilientRunner (below) snapshots every `snapshot_every` steps; its
// rungs halve m, switch to single-vector sd_step calls, then halve dt;
// giving up parks the run at the snapshot. Each member of
// ensemble::EnsembleRunner gets one epoch per round and one rung
// (halve its dt); giving up evicts it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "core/health.hpp"
#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "solver/lanczos.hpp"

namespace mrhs::core {

class ContainmentLadder {
 public:
  /// Rung 0 runs undegraded; a repeat strike escalates at most to
  /// `last_rung`. `max_rollbacks` is the lifetime budget.
  ContainmentLadder(std::size_t last_rung, std::size_t max_rollbacks)
      : last_rung_(last_rung), max_rollbacks_(max_rollbacks) {}

  /// Open an epoch: snapshot `sim` at `step`, clear the strike count.
  void open_epoch(std::size_t step, const SdSimulation& sim);
  /// Close the epoch (once per epoch): promote one rung if it saw no
  /// rollback. True when the rung changed.
  bool close_epoch(RunStats& stats);
  /// Restore the snapshot into `sim`; true to replay from
  /// snapshot_step() at rung() (possibly escalated), false on giving up.
  [[nodiscard]] bool strike(SdSimulation& sim, RunStats& stats);

  [[nodiscard]] bool has_snapshot() const { return snapshot_.has_value(); }
  [[nodiscard]] std::size_t snapshot_step() const { return snapshot_step_; }
  [[nodiscard]] std::size_t rung() const { return rung_; }
  [[nodiscard]] bool gave_up() const { return gave_up_; }

 private:
  bool give_up(RunStats& stats);

  std::size_t last_rung_;
  std::size_t max_rollbacks_;
  std::size_t snapshot_step_ = 0;
  std::optional<SdSimulation::State> snapshot_;
  std::size_t rollbacks_ = 0;
  std::size_t epoch_strikes_ = 0;
  std::size_t rung_ = 0;
  bool gave_up_ = false;
};

struct ResilienceOptions {
  /// Steps between in-memory snapshots (the rollback grain; an epoch).
  std::size_t snapshot_every = 16;
  /// Total rollback budget for the runner's lifetime.
  std::size_t max_rollbacks = 8;
  HealthConfig health{};
};

/// ResilientRunner's rungs, mildest first. kFull runs the configured
/// MRHS algorithm untouched.
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
  /// degradation ladder. Stops early only when the ladder gives up
  /// (stats.resilience_gave_up). Sets the algorithm's chunk horizon if
  /// the caller has not already pinned one.
  [[nodiscard]] RunStats run(std::size_t count);

  /// Test seam: invoked after every completed step, *before* the
  /// health check — the place to model silent state corruption that
  /// no fault-injection build is needed for.
  void set_post_step_hook(std::function<void(std::size_t step)> hook) {
    post_step_hook_ = std::move(hook);
  }

  [[nodiscard]] DegradationLevel level() const {
    return static_cast<DegradationLevel>(ladder_.rung());
  }
  [[nodiscard]] bool gave_up() const { return ladder_.gave_up(); }
  /// Step index of the last rolling snapshot (the rollback target).
  [[nodiscard]] std::size_t snapshot_step() const {
    return ladder_.has_snapshot() ? ladder_.snapshot_step()
                                  : alg_->current_step();
  }

 private:
  /// A rung's chunk width m, time step, and whether it steps through
  /// single-vector sd_step calls instead of MRHS chunks.
  struct RungSettings {
    std::size_t rhs;
    double dt;
    bool scalar;
  };
  [[nodiscard]] RungSettings settings(DegradationLevel level) const;
  /// Apply the current rung's settings after a change from `previous`.
  void apply_rung(DegradationLevel previous);
  void take_snapshot(RunStats& stats);
  void step_once(RunStats& stats);
  /// Strike the ladder and restore the runner's side of the snapshot;
  /// false when the ladder gave up (the run is parked at the snapshot).
  bool contain(RunStats& stats);

  SdSimulation* sim_;
  MrhsAlgorithm* alg_;
  ResilienceOptions options_;
  StepHealthMonitor monitor_;
  std::function<void(std::size_t)> post_step_hook_;
  ContainmentLadder ladder_;
  std::size_t base_rhs_;
  double base_dt_;
  /// The scalar rungs' Chebyshev interval: calibrated on first use,
  /// then every AlgorithmConfig{}.bounds_refresh steps.
  std::optional<solver::EigBounds> scalar_bounds_;
  /// The runner's side of the ladder's snapshot.
  MrhsState alg_at_snapshot_;
  std::optional<solver::EigBounds> scalar_bounds_at_snapshot_;
};

}  // namespace mrhs::core
