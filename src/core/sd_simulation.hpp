// Simulation state shared by both SD time-stepping algorithms:
// configuration, resistance assembly, noise streams, and step size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "sd/assembly_engine.hpp"
#include "sd/brownian.hpp"
#include "sd/packing.hpp"
#include "sd/particle_system.hpp"
#include "sd/resistance.hpp"
#include "sparse/bcrs.hpp"

namespace mrhs::core {

struct SdConfig {
  std::size_t particles = 3000;
  double phi = 0.5;              // volume occupancy
  std::uint64_t seed = 42;
  double kT = 1.0;
  double viscosity = 1.0;
  std::size_t chebyshev_order = 30;  // paper's C_max
  double solver_tol = 1e-6;          // paper's stopping threshold
  std::size_t solver_max_iters = 5000;
  /// Target root-mean-square particle displacement per step, as a
  /// fraction of the mean radius. The step size is derived from this —
  /// the analogue of the paper choosing "the maximum time step size
  /// that can be used while avoiding particle overlaps".
  double rms_step_fraction = 0.005;
  /// Per-step displacement clamp (fraction of the mean radius); the
  /// overlap-avoiding midpoint modification.
  double max_step_fraction = 0.05;
  /// Lubrication gap cutoff (scaled by mean pair radius); controls the
  /// sparsity nnzb/nb of the resistance matrix. The default matches
  /// the paper's production SD matrices (mat2-like, nnzb/nb ~ 25 at
  /// 50% occupancy); see workloads.cpp for the Table I calibration.
  double lubrication_cutoff = 2.05;
  /// Packing pad: the initial configuration is packed with radii
  /// inflated by this fraction, so the real system starts with surface
  /// gaps of ~2*pad*a instead of grazing contacts (which would pin the
  /// conditioning at the lubrication gap floor). Negative (default)
  /// selects the phi-dependent equilibrium pad — dilute systems get
  /// wide gaps, crowded ones sit near contact, reproducing the paper's
  /// occupancy-dependent conditioning (Table V).
  double packing_pad = -1.0;
  /// Incremental-assembly displacement tolerance as a fraction of the
  /// mean radius (sd::AssemblyEngine; the Verlet skin is derived from
  /// it). 0 (default) assembles exactly: every pair of a Verlet
  /// candidate list is recomputed every time, so R is a pure function
  /// of the positions; nonzero trades a bounded trajectory
  /// perturbation for reusing clean lubrication blocks (bench/abl04
  /// measures the trade-off).
  double assembly_tolerance = 0.0;
  /// Workers for the GSPMV, the solvers' passes and the exact
  /// assembly; 0 = omp_get_max_threads().
  int threads = 0;
};

/// Matrix + stats of one assembly (now produced by sd::AssemblyEngine;
/// the alias keeps core-level callers source-compatible).
using AssemblyResult = sd::AssemblyResult;

class SdSimulation {
 public:
  /// Sample the E. coli radius distribution, pack at `config.phi`, and
  /// derive the time step.
  explicit SdSimulation(const SdConfig& config);

  /// Restore-from-checkpoint constructor: adopt an existing particle
  /// configuration and the already-derived step size verbatim, without
  /// re-running radius sampling or packing. Used by checkpoint.cpp;
  /// `dt` and `mean_radius` must come from the original run for the
  /// resumed trajectory to be bitwise identical.
  SdSimulation(const SdConfig& config, sd::ParticleSystem system, double dt,
               double mean_radius);

  [[nodiscard]] const SdConfig& config() const { return config_; }
  [[nodiscard]] const sd::ParticleSystem& system() const { return system_; }
  [[nodiscard]] sd::ParticleSystem& system() { return system_; }
  [[nodiscard]] double dt() const { return dt_; }
  [[nodiscard]] double mean_radius() const { return mean_radius_; }

  /// Override the derived step size. The resilience policy's last
  /// degradation rung shrinks dt (and restores it on recovery); noise
  /// amplitudes and displacement bounds all rescale through dt().
  void set_dt(double dt) { dt_ = dt; }
  [[nodiscard]] std::size_t dof() const { return 3 * system_.size(); }

  /// A copy of R = mu_F I + R_lub at the current configuration, via
  /// the engine (its exact path when `assembly_tolerance` is 0, the
  /// default). Steppers borrow engine().assemble() instead.
  [[nodiscard]] AssemblyResult assemble();

  /// The stateful assembly engine (candidate list, or pattern cache +
  /// dirty-pair tracker). Steppers call this directly; its state
  /// participates in checkpoint/rollback through state()/restore().
  [[nodiscard]] sd::AssemblyEngine& engine() { return *engine_; }
  [[nodiscard]] const sd::AssemblyEngine& engine() const { return *engine_; }

  /// Everything a rollback or checkpoint carries to replay the
  /// trajectory bitwise: particle state plus assembly-engine state.
  /// Without the latter, a replay under incremental assembly would
  /// refresh lubrication blocks the original run reused.
  struct State {
    sd::ParticleSystem::Snapshot system;
    sd::AssemblyEngineState assembly;
  };
  [[nodiscard]] State state() const {
    return {system_.snapshot(), engine_->export_state()};
  }
  /// Restores the particles first, then the engine, which recomputes
  /// its cached tensors against the restored system.
  void restore(const State& state) {
    system_.restore(state.system);
    engine_->import_state(state.assembly, system_);
  }

  /// Standard normal noise vector for time step `step` (deterministic,
  /// so different algorithms see identical forcing).
  void noise(std::uint64_t step, std::span<double> z) const;

  /// Displacement clamp in absolute length units.
  [[nodiscard]] double max_step_length() const {
    return config_.max_step_fraction * mean_radius_;
  }

  [[nodiscard]] const sd::ResistanceParams& resistance_params() const {
    return resistance_;
  }

 private:
  SdConfig config_;
  sd::ParticleSystem system_;
  sd::ResistanceParams resistance_;
  /// Stateful assembly: the candidate list (or the pattern cache and
  /// dirty-pair tracker) persists across the two assemblies of every
  /// time step and across steps.
  std::optional<sd::AssemblyEngine> engine_;
  double dt_ = 0.0;
  double mean_radius_ = 1.0;
};

}  // namespace mrhs::core
