#include "core/resilience.hpp"

#include <algorithm>
#include <utility>

#include "obs/obs.hpp"
#include "util/timer.hpp"

namespace mrhs::core {

void ContainmentLadder::open_epoch(std::size_t step, const SdSimulation& sim) {
  snapshot_step_ = step;
  snapshot_ = sim.state();
  epoch_strikes_ = 0;
  OBS_COUNTER_ADD("resilience.snapshots", 1);
}

bool ContainmentLadder::close_epoch(RunStats& stats) {
  if (epoch_strikes_ > 0 || rung_ == 0) return false;
  --rung_;
  ++stats.recovery_promotions;
  OBS_COUNTER_ADD("resilience.promotions", 1);
  return true;
}

bool ContainmentLadder::strike(SdSimulation& sim, RunStats& stats) {
  sim.restore(*snapshot_);
  if (rollbacks_ >= max_rollbacks_) return give_up(stats);
  ++rollbacks_;
  ++epoch_strikes_;
  ++stats.rollbacks;
  OBS_COUNTER_ADD("resilience.rollbacks", 1);
  // A repeat strike within one epoch is systematic, not transient:
  // descend a rung, or give up when there is none left.
  if (epoch_strikes_ > 1) {
    if (rung_ == last_rung_) return give_up(stats);
    ++rung_;
    ++stats.degradations;
    OBS_COUNTER_ADD("resilience.degradations", 1);
  }
  return true;
}

bool ContainmentLadder::give_up(RunStats& stats) {
  gave_up_ = true;
  stats.resilience_gave_up = true;
  OBS_COUNTER_ADD("resilience.gave_up", 1);
  return false;
}

ResilientRunner::ResilientRunner(SdSimulation& sim, MrhsAlgorithm& alg,
                                 ResilienceOptions options)
    : sim_(&sim),
      alg_(&alg),
      options_(options),
      monitor_(sim, options.health),
      ladder_(static_cast<std::size_t>(DegradationLevel::kShrunkDt),
              options.max_rollbacks),
      base_rhs_(alg.rhs()),
      base_dt_(sim.dt()) {
  if (options_.snapshot_every == 0) options_.snapshot_every = 1;
}

ResilientRunner::RungSettings ResilientRunner::settings(
    DegradationLevel level) const {
  using enum DegradationLevel;
  return {level == kFull ? base_rhs_ : std::max<std::size_t>(1, base_rhs_ / 2),
          level == kShrunkDt ? 0.5 * base_dt_ : base_dt_,
          level >= kScalarFallback};
}

void ResilientRunner::apply_rung(DegradationLevel previous) {
  const RungSettings now = settings(level());
  // set_rhs rebases an autotuning run, so only call it for a real change.
  if (now.rhs != settings(previous).rhs) alg_->set_rhs(now.rhs);
  sim_->set_dt(now.dt);
}

void ResilientRunner::take_snapshot(RunStats& stats) {
  const DegradationLevel previous = level();
  if (ladder_.close_epoch(stats)) apply_rung(previous);
  ladder_.open_epoch(alg_->current_step(), *sim_);
  alg_at_snapshot_ = alg_->export_state();
  scalar_bounds_at_snapshot_ = scalar_bounds_;
}

void ResilientRunner::step_once(RunStats& stats) {
  if (!settings(level()).scalar) {
    stats.merge(alg_->run(1));
    return;
  }
  // Original-algorithm step at the MRHS cursor (noise is step-keyed).
  const std::size_t step = alg_->current_step();
  const bool calibrate = !scalar_bounds_.has_value() ||
                         step % AlgorithmConfig{}.bounds_refresh == 0;
  if (!scalar_bounds_.has_value()) scalar_bounds_.emplace();
  sd_step(*sim_, step, *scalar_bounds_, calibrate, {}, stats);
  // Advance the MRHS cursor past it, abandoning any in-flight chunk:
  // its guesses were computed for a trajectory this step just left.
  MrhsState state = alg_->export_state();
  state.step = step + 1;
  state.chunk_active = false;
  alg_->import_state(std::move(state));
}

bool ResilientRunner::contain(RunStats& stats) {
  const DegradationLevel previous = level();
  const bool replay = ladder_.strike(*sim_, stats);
  alg_->import_state(MrhsState(alg_at_snapshot_));
  scalar_bounds_ = scalar_bounds_at_snapshot_;
  while (!stats.steps.empty() &&
         stats.steps.back().step >= ladder_.snapshot_step()) {
    stats.steps.pop_back();
  }
  monitor_.rebase();
  if (level() != previous) apply_rung(previous);
  return replay;
}

RunStats ResilientRunner::run(std::size_t count) {
  RunStats stats;
  if (gave_up()) {
    stats.resilience_gave_up = true;
    return stats;
  }
  util::WallTimer total;
  if (!alg_->horizon_set()) alg_->set_horizon(count);
  const std::size_t target = alg_->current_step() + count;
  if (!ladder_.has_snapshot()) take_snapshot(stats);

  while (alg_->current_step() < target) {
    if (alg_->current_step() - ladder_.snapshot_step() >=
        options_.snapshot_every) {
      take_snapshot(stats);
    }

    step_once(stats);
    if (post_step_hook_) post_step_hook_(alg_->current_step() - 1);

    const solver::EigBounds& bounds = settings(level()).scalar
                                          ? *scalar_bounds_
                                          : alg_->chunk_bounds();
    if (bounds.lambda_min > 0.0) monitor_.set_bounds(bounds);
    // Giving up parks the run at the last good snapshot rather than
    // integrating a corrupt state onward.
    if (monitor_.check(stats.steps.back()).corrupt() && !contain(stats)) break;
  }
  stats.seconds_total = total.seconds();
  return stats;
}

}  // namespace mrhs::core
