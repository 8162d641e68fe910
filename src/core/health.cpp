#include "core/health.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/obs.hpp"
#include "sd/cell_list.hpp"

namespace mrhs::core {

namespace {

[[nodiscard]] std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

/// Keep the worse of (current verdict, candidate); ties keep the
/// earlier check in battery order.
void escalate(HealthVerdict& verdict, HealthState state, HealthCheck check,
              std::string detail) {
  if (static_cast<int>(state) <= static_cast<int>(verdict.state)) return;
  verdict.state = state;
  verdict.check = check;
  verdict.detail = std::move(detail);
}

}  // namespace

StepHealthMonitor::StepHealthMonitor(const SdSimulation& sim,
                                     HealthConfig config)
    : sim_(&sim), config_(config) {
  rebase();
}

void StepHealthMonitor::set_bounds(const solver::EigBounds& bounds) {
  bounds_ = bounds;
  have_bounds_ = bounds.lambda_min > 0.0;
}

void StepHealthMonitor::rebase() {
  const auto& system = sim_->system();
  last_unwrapped_.resize(system.size());
  for (std::size_t i = 0; i < system.size(); ++i) {
    last_unwrapped_[i] = system.unwrapped_displacement(i);
  }
}

double StepHealthMonitor::displacement_bound() const {
  return sim_->max_step_length() * config_.displacement_slack;
}

double StepHealthMonitor::thermal_scale() const {
  if (!have_bounds_) return 0.0;
  // Per-coordinate step variance for an overdamped particle with the
  // *stiffest* resistance in the spectrum is 2 kT dt / lambda_min per
  // the fluctuation-dissipation theorem; lambda_min gives the largest
  // mobility and therefore the largest plausible thermal step.
  return std::sqrt(2.0 * sim_->config().kT * sim_->dt() /
                   bounds_.lambda_min);
}

HealthVerdict StepHealthMonitor::check(const StepRecord& record) {
  HealthVerdict verdict;
  verdict.step = record.step;
  const auto& system = sim_->system();
  const auto positions = system.positions();
  const std::size_t n = system.size();

  // 1. Non-finite state: positions and accumulated displacements.
  for (std::size_t i = 0; i < n; ++i) {
    const sd::Vec3& p = positions[i];
    const sd::Vec3 u = system.unwrapped_displacement(i);
    const bool finite = std::isfinite(p.x) && std::isfinite(p.y) &&
                        std::isfinite(p.z) && std::isfinite(u.x) &&
                        std::isfinite(u.y) && std::isfinite(u.z);
    if (!finite) {
      escalate(verdict, HealthState::kCorrupt, HealthCheck::kNonFinite,
               "particle " + std::to_string(i) +
                   " has a non-finite position or displacement");
      break;
    }
  }

  // 2. Per-step displacement against physical bounds. The integrator
  // clamps every displacement to max_step_length(), so exceeding it
  // means the motion did not come from the integrator.
  if (last_unwrapped_.size() == n) {
    double max_disp = 0.0;
    std::size_t max_i = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d =
          (system.unwrapped_displacement(i) - last_unwrapped_[i]).norm();
      if (d > max_disp) {
        max_disp = d;
        max_i = i;
      }
    }
    if (!std::isfinite(max_disp)) {
      escalate(verdict, HealthState::kCorrupt, HealthCheck::kNonFinite,
               "non-finite per-step displacement");
    } else if (max_disp > displacement_bound()) {
      escalate(verdict, HealthState::kCorrupt, HealthCheck::kDisplacement,
               "particle " + std::to_string(max_i) + " moved " +
                   format_double(max_disp) + " in one step (clamp " +
                   format_double(displacement_bound()) + ")");
    } else if (have_bounds_ &&
               max_disp > config_.thermal_sigmas * thermal_scale()) {
      escalate(verdict, HealthState::kDegraded, HealthCheck::kDisplacement,
               "particle " + std::to_string(max_i) + " moved " +
                   format_double(max_disp) + " in one step (" +
                   format_double(config_.thermal_sigmas) +
                   " sigma thermal bound " +
                   format_double(config_.thermal_sigmas * thermal_scale()) +
                   ")");
    }
  }
  rebase();

  // 3. Overlaps deeper than the packer/integrator tolerance, relative
  // to the mean pair radius. Linked cells keep this O(n); only
  // verdicts from non-finite positions skip it (the cell grid cannot
  // place NaN coordinates).
  if (verdict.check != HealthCheck::kNonFinite && n > 1) {
    OBS_SPAN_VAR(scan_span, "health.overlap_scan");
    scan_span.arg("particles", static_cast<double>(n));
    const double reach = 2.0 * system.max_radius() * 1.0001;
    const sd::CellList cells(system, reach);
    double worst_depth = 0.0;
    std::size_t worst_i = 0;
    std::size_t worst_j = 0;
    cells.for_each_overlapping_pair([&](const sd::Pair& pair) {
      const double pair_radius =
          0.5 * (system.radii()[pair.i] + system.radii()[pair.j]);
      const double depth = -pair.gap / pair_radius;
      if (depth > worst_depth) {
        worst_depth = depth;
        worst_i = pair.i;
        worst_j = pair.j;
      }
    });
    if (worst_depth > config_.overlap_corrupt_depth ||
        worst_depth > config_.overlap_degraded_depth) {
      const bool corrupt = worst_depth > config_.overlap_corrupt_depth;
      escalate(verdict,
               corrupt ? HealthState::kCorrupt : HealthState::kDegraded,
               HealthCheck::kOverlap,
               "particles " + std::to_string(worst_i) + "/" +
                   std::to_string(worst_j) + " overlap by " +
                   format_double(worst_depth) + " of their pair radius");
    }
  }

  // 4. Guess divergence: an MRHS initial guess that is *worse* than a
  // zero guess signals the chunk operator drifted away from the
  // step's true operator (or the block solve went bad).
  if (std::isnan(record.guess_rel_error)) {
    escalate(verdict, HealthState::kCorrupt, HealthCheck::kGuessDivergence,
             "guess relative error is NaN");
  } else if (record.guess_rel_error > config_.guess_divergence) {
    escalate(verdict, HealthState::kDegraded, HealthCheck::kGuessDivergence,
             "guess relative error " +
                 format_double(record.guess_rel_error) + " exceeds " +
                 format_double(config_.guess_divergence));
  }

  OBS_COUNTER_ADD("health.checks", 1);
  switch (verdict.state) {
    case HealthState::kOk: break;
    case HealthState::kDegraded:
      OBS_COUNTER_ADD("health.degraded", 1);
      break;
    case HealthState::kCorrupt:
      OBS_COUNTER_ADD("health.corrupt", 1);
      break;
  }
  return verdict;
}

}  // namespace mrhs::core
