#include "core/sd_simulation.hpp"

#include <algorithm>
#include <numbers>
#include <utility>
#include <vector>

#include "sd/effective_viscosity.hpp"
#include "sd/radii.hpp"

namespace mrhs::core {

SdSimulation::SdSimulation(const SdConfig& config) : config_(config) {
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(),
                                config.particles, config.seed);
  mean_radius_ = 0.0;
  for (double r : radii) mean_radius_ += r;
  mean_radius_ /= static_cast<double>(radii.size());

  // Pack with padded radii, then run with the true ones: the initial
  // configuration has equilibrium-like gaps instead of contacts.
  sd::PackingParams packing;
  packing.seed = config.seed;
  system_ = sd::pack_equilibrated(std::move(radii), config.phi, packing,
                                  config.packing_pad);

  resistance_.viscosity = config.viscosity;
  resistance_.lubrication.viscosity = config.viscosity;
  resistance_.lubrication.max_gap_scaled = config.lubrication_cutoff;

  // Derive dt from the target rms displacement: a free particle with
  // far-field drag zeta moves with <|dr|^2> = 6 kT dt / zeta per step.
  // The displacement target is additionally capped at a fraction of
  // the typical surface gap — the paper's "maximum time step size that
  // can be used while avoiding particle overlaps".
  const double zeta =
      sd::far_field_drag(mean_radius_, config.viscosity, config.phi);
  const double pad = config.packing_pad >= 0.0 ? config.packing_pad
                                               : sd::equilibrium_pad(config.phi);
  const double target =
      std::min(config.rms_step_fraction, 0.4 * pad) * mean_radius_;
  dt_ = target * target * zeta / (6.0 * config.kT);

  engine_.emplace(resistance_,
                  sd::AssemblyOptions{
                      .tolerance = config.assembly_tolerance * mean_radius_,
                      .threads = config.threads});
}

SdSimulation::SdSimulation(const SdConfig& config, sd::ParticleSystem system,
                           double dt, double mean_radius)
    : config_(config),
      system_(std::move(system)),
      dt_(dt),
      mean_radius_(mean_radius) {
  resistance_.viscosity = config.viscosity;
  resistance_.lubrication.viscosity = config.viscosity;
  resistance_.lubrication.max_gap_scaled = config.lubrication_cutoff;
  engine_.emplace(resistance_,
                  sd::AssemblyOptions{
                      .tolerance = config.assembly_tolerance * mean_radius_,
                      .threads = config.threads});
}

AssemblyResult SdSimulation::assemble() {
  return engine_->assemble_incremental(system_);
}

void SdSimulation::noise(std::uint64_t step, std::span<double> z) const {
  sd::noise_for_step(config_.seed, step, z);
}

}  // namespace mrhs::core
