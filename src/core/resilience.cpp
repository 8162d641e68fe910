#include "core/resilience.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace mrhs::core {

ResilientRunner::ResilientRunner(SdSimulation& sim, MrhsAlgorithm& alg,
                                 ResilienceOptions options)
    : sim_(&sim),
      alg_(&alg),
      options_(options),
      monitor_(sim, options.health),
      base_rhs_(alg.rhs()),
      base_dt_(sim.dt()) {
  if (options_.snapshot_every == 0) options_.snapshot_every = 1;
}

std::size_t ResilientRunner::snapshot_step() const {
  return snapshot_.has_value() ? snapshot_->step : alg_->current_step();
}

void ResilientRunner::take_snapshot() {
  Snapshot snap;
  snap.step = alg_->current_step();
  snap.state = sim_->state();
  snap.alg = alg_->export_state();
  snapshot_ = std::move(snap);
  epoch_rollbacks_ = 0;
  OBS_COUNTER_ADD("resilience.snapshots", 1);
}

void ResilientRunner::step_once(RunStats& stats) {
  if (level_ == DegradationLevel::kScalarFallback ||
      level_ == DegradationLevel::kShrunkDt) {
    if (!scalar_.has_value()) scalar_.emplace(*sim_);
    // Keep the scalar engine's cursor in lockstep with the trajectory
    // (its noise stream is keyed on the absolute step index).
    AlgorithmState cursor = scalar_->export_state();
    cursor.step = alg_->current_step();
    scalar_->import_state(cursor);
    stats.merge(scalar_->run(1));
    // Advance the MRHS cursor past the scalar step. Any in-flight
    // chunk is abandoned: its guesses were computed for a trajectory
    // this step just left.
    MrhsState state = alg_->export_state();
    state.step = scalar_->current_step();
    state.chunk_active = false;
    alg_->import_state(std::move(state));
  } else {
    stats.merge(alg_->run(1));
  }
}

void ResilientRunner::restore_snapshot(RunStats& stats) {
  const Snapshot& snap = *snapshot_;
  sim_->restore(snap.state);
  alg_->import_state(MrhsState(snap.alg));
  while (!stats.steps.empty() && stats.steps.back().step >= snap.step) {
    stats.steps.pop_back();
  }
  monitor_.rebase();
}

bool ResilientRunner::roll_back(RunStats& stats) {
  if (rollbacks_spent_ >= options_.max_rollbacks) return false;
  ++rollbacks_spent_;
  ++epoch_rollbacks_;
  ++stats.rollbacks;
  OBS_COUNTER_ADD("resilience.rollbacks", 1);

  restore_snapshot(stats);
  clean_streak_ = 0;
  // A transient fault is gone on replay, and the retry reproduces the
  // fault-free trajectory bitwise. Corruption that recurs within the
  // same snapshot epoch is systematic — descend the ladder.
  if (epoch_rollbacks_ > 1) escalate(stats);
  return true;
}

void ResilientRunner::escalate(RunStats& stats) {
  switch (level_) {
    case DegradationLevel::kFull:
      level_ = DegradationLevel::kHalvedRhs;
      alg_->set_rhs(std::max<std::size_t>(1, base_rhs_ / 2));
      break;
    case DegradationLevel::kHalvedRhs:
      level_ = DegradationLevel::kScalarFallback;
      break;
    case DegradationLevel::kScalarFallback:
      level_ = DegradationLevel::kShrunkDt;
      sim_->set_dt(0.5 * base_dt_);
      break;
    case DegradationLevel::kShrunkDt:
      return;  // bottom rung; only the rollback budget remains
  }
  ++stats.degradations;
  OBS_COUNTER_ADD("resilience.degradations", 1);
}

void ResilientRunner::promote(RunStats& stats) {
  switch (level_) {
    case DegradationLevel::kShrunkDt:
      sim_->set_dt(base_dt_);
      level_ = DegradationLevel::kScalarFallback;
      break;
    case DegradationLevel::kScalarFallback:
      level_ = DegradationLevel::kHalvedRhs;
      alg_->set_rhs(std::max<std::size_t>(1, base_rhs_ / 2));
      break;
    case DegradationLevel::kHalvedRhs:
      alg_->set_rhs(base_rhs_);
      level_ = DegradationLevel::kFull;
      break;
    case DegradationLevel::kFull:
      return;
  }
  ++stats.recovery_promotions;
  clean_streak_ = 0;
  OBS_COUNTER_ADD("resilience.promotions", 1);
}

RunStats ResilientRunner::run(std::size_t count) {
  RunStats stats;
  if (gave_up_) {
    stats.resilience_gave_up = true;
    return stats;
  }
  util::WallTimer total;
  if (!alg_->horizon_set()) alg_->set_horizon(count);
  const std::size_t target = alg_->current_step() + count;
  if (!snapshot_.has_value()) take_snapshot();

  while (alg_->current_step() < target) {
    if (alg_->current_step() - snapshot_->step >= options_.snapshot_every) {
      take_snapshot();
    }

    step_once(stats);
    const std::size_t completed = alg_->current_step() - 1;
    if (post_step_hook_) post_step_hook_(completed);

    const solver::EigBounds& bounds = alg_->chunk_bounds();
    if (bounds.lambda_min > 0.0) monitor_.set_bounds(bounds);
    const HealthVerdict verdict = monitor_.check(stats.steps.back());

    if (verdict.corrupt()) {
      if (!roll_back(stats)) {
        // Budget exhausted: park the trajectory at the last good
        // snapshot rather than integrating a corrupt state onward.
        restore_snapshot(stats);
        gave_up_ = true;
        stats.resilience_gave_up = true;
        OBS_COUNTER_ADD("resilience.gave_up", 1);
        break;
      }
    } else if (verdict.state == HealthState::kDegraded) {
      clean_streak_ = 0;
    } else {
      ++clean_streak_;
      if (level_ != DegradationLevel::kFull &&
          clean_streak_ >= options_.recovery_steps) {
        promote(stats);
      }
    }
  }
  stats.seconds_total = total.seconds();
  return stats;
}

}  // namespace mrhs::core
