// Quickstart: simulate a crowded protein suspension with the MRHS
// Stokesian dynamics stepper and report what the batching bought.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart [--particles N] [--phi F] [--steps N]
//
// Checkpoint/restart:
//   quickstart --steps 20 --checkpoint-out ck.bin --checkpoint-every 5
//   quickstart --steps 20 --resume ck.bin
//
// A resumed run continues the trajectory bitwise: positions after
// "10 straight steps" and "5 steps, checkpoint, resume, 5 more" are
// identical doubles (scripts/check_resume.py asserts exactly this).
//
// Chaos testing (builds with fault injection compiled in):
//   quickstart --steps 20 --faults stepper.position.nan@9
// injects a NaN coordinate after step 9; the resilient runner detects
// it, rolls back to the last snapshot, and replays — the final
// trajectory is bitwise identical to a fault-free run
// (scripts/check_chaos.py asserts exactly this).
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>

#include "core/checkpoint.hpp"
#include "core/resilience.hpp"
#include "perf/machine.hpp"
#include "core/sd_simulation.hpp"
#include "core/status.hpp"
#include "core/stepper.hpp"
#include "util/cli.hpp"
#include "util/fault_injection.hpp"

namespace {

/// Hex float (%a) round-trips every bit of the double, so two runs can
/// be compared for exact equality through a text file.
bool write_positions(const mrhs::core::SdSimulation& sim,
                     const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  for (const auto& p : sim.system().positions()) {
    std::fprintf(out, "%a %a %a\n", p.x, p.y, p.z);
  }
  std::fclose(out);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mrhs;

  int particles = 1000;
  double phi = 0.4;
  int steps = 16;
  int rhs = 8;
  std::string checkpoint_out;
  int checkpoint_every = 0;
  std::string resume_path;
  int stop_after = 0;
  std::string positions_out;
  int max_rollbacks = 8;
  int snapshot_every = 16;
  double assembly_tolerance = 0.0;
  bool autotune = false;
  util::ArgParser args("quickstart",
                       "Minimal MRHS Stokesian dynamics simulation");
  args.add("particles", particles, "number of particles");
  args.add("phi", phi, "volume occupancy");
  args.add("steps", steps, "time steps to simulate (total, incl. resumed)");
  args.add("rhs", rhs, "right-hand sides per MRHS chunk");
  args.add("checkpoint-out", checkpoint_out,
           "write a checkpoint to this path (see --checkpoint-every)");
  args.add("checkpoint-every", checkpoint_every,
           "checkpoint period in steps (0: only at exit)");
  args.add("resume", resume_path, "resume from this checkpoint file");
  args.add("stop-after", stop_after,
           "stop after this many steps of this process (0: run to --steps); "
           "simulates an interrupted run for checkpoint testing");
  args.add("positions-out", positions_out,
           "write final positions as hex floats (bitwise comparable)");
  args.add("max-rollbacks", max_rollbacks,
           "rollback budget before the run gives up");
  args.add("snapshot-every", snapshot_every,
           "steps between in-memory rollback snapshots");
  args.add("assembly-tolerance", assembly_tolerance,
           "incremental-assembly displacement tolerance as a fraction of "
           "the mean radius (0: rebuild every lubrication block per step)");
  args.add("autotune", autotune,
           "let the online tuner pick the chunk width m from the machine's "
           "measured B/F (--rhs sizes only the first chunk)");
  util::ObsCli obs_cli;
  obs_cli.add_to(args);
  util::FaultCli fault_cli;
  fault_cli.add_to(args);
  args.parse(argc, argv);
  obs_cli.apply();
  if (core::Status s = fault_cli.apply(); !s.is_ok()) {
    std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
    return 1;
  }

  // 1. Build the system — from scratch, or bit-exact from a checkpoint.
  core::SdConfig config;
  config.particles = static_cast<std::size_t>(particles);
  config.phi = phi;
  config.seed = 2024;
  config.assembly_tolerance = std::max(assembly_tolerance, 0.0);
  std::optional<core::SdSimulation> sim;
  std::optional<core::MrhsAlgorithm> stepper;
  core::RunStatsSummary prior_stats;
  if (!resume_path.empty()) {
    core::Checkpoint ck;
    if (core::Status s = core::load_checkpoint(resume_path, ck); !s.is_ok()) {
      std::fprintf(stderr, "error: cannot resume: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    if (ck.algorithm != core::CheckpointAlgorithm::kMrhs) {
      std::fprintf(stderr,
                   "error: checkpoint holds a '%s' run, quickstart is MRHS\n",
                   core::to_string(ck.algorithm));
      return 1;
    }
    if (core::Status s = core::restore_simulation(ck, sim); !s.is_ok()) {
      std::fprintf(stderr, "error: cannot resume: %s\n",
                   s.to_string().c_str());
      return 1;
    }
    // Reuse the original run's probed machine B/F (sidecar) so the
    // autotuner re-seeds identically instead of re-probing; a missing
    // or pre-dispatch sidecar just falls back to a fresh probe.
    if (perf::MachineParams machine;
        core::load_machine_sidecar(resume_path, machine).is_ok()) {
      perf::set_machine_quick(machine);
      std::printf("resume: reusing probed machine params "
                  "(B = %.3g GB/s, F = %.3g GF/s)\n",
                  machine.bandwidth / 1e9, machine.flops / 1e9);
    }
    stepper.emplace(*sim, core::AlgorithmConfig{.rhs = ck.mrhs_rhs,
                                                .autotune = autotune});
    stepper->import_state(ck.mrhs_state);
    prior_stats = ck.stats;
    std::printf("resumed from %s at step %zu\n", resume_path.c_str(),
                stepper->current_step());
  } else {
    sim.emplace(config);
    stepper.emplace(*sim,
                    core::AlgorithmConfig{.rhs = static_cast<std::size_t>(rhs),
                                          .autotune = autotune});
  }
  std::printf("system: %zu particles, phi = %.2f, box = %.1f radii, "
              "dt = %.3g\n",
              sim->system().size(), sim->system().volume_fraction(),
              sim->system().box().length(), sim->dt());

  // 2. Advance with the MRHS algorithm (paper Algorithm 2): each chunk
  //    of `rhs` steps solves one augmented multi-RHS system whose
  //    columns seed the following steps. The horizon pins chunk
  //    boundaries to absolute step indices so interrupted-and-resumed
  //    runs chunk exactly like straight ones.
  const auto total_steps = static_cast<std::size_t>(steps);
  if (stepper->current_step() >= total_steps) {
    std::fprintf(stderr, "error: checkpoint is already at step %zu >= %d\n",
                 stepper->current_step(), steps);
    return 1;
  }
  std::size_t remaining = total_steps - stepper->current_step();
  stepper->set_horizon(remaining);
  if (stop_after > 0) {
    remaining = std::min(remaining, static_cast<std::size_t>(stop_after));
  }

  // Every step runs under the resilient wrapper: post-step health
  // checks, rolling snapshots, rollback + degradation on corruption.
  // Fault-free runs take the exact same trajectory as the bare stepper.
  core::ResilienceOptions resilience;
  resilience.snapshot_every =
      static_cast<std::size_t>(std::max(snapshot_every, 1));
  resilience.max_rollbacks = static_cast<std::size_t>(
      std::max(max_rollbacks, 0));
  core::ResilientRunner runner(*sim, *stepper, resilience);

  // Run in checkpoint-sized legs (one leg when no period is set).
  const auto period = checkpoint_every > 0
                          ? static_cast<std::size_t>(checkpoint_every)
                          : remaining;
  core::RunStats stats;
  prior_stats.apply_to(stats);  // no-op unless resuming
  std::size_t done = 0;
  while (done < remaining) {
    const std::size_t leg = std::min(period, remaining - done);
    stats.merge(runner.run(leg));
    done += leg;
    if (!checkpoint_out.empty()) {
      auto ck = core::capture_checkpoint(*sim, *stepper);
      ck.stats = core::RunStatsSummary::from(stats);
      if (core::Status s = core::save_checkpoint(ck, checkpoint_out);
          !s.is_ok()) {
        std::fprintf(stderr, "error: checkpoint failed: %s\n",
                     s.to_string().c_str());
        return 1;
      }
      std::printf("checkpoint: step %zu -> %s\n", stepper->current_step(),
                  checkpoint_out.c_str());
    }
    if (stats.resilience_gave_up) {
      std::fprintf(stderr,
                   "error: rollback budget exhausted at step %zu; "
                   "stopping at the last good snapshot\n",
                   stepper->current_step());
      break;
    }
  }

  // 3. Report.
  std::printf("\nran %zu steps in %.2f s (%.3g s/step)\n",
              stats.steps.size(), stats.seconds_total,
              stats.avg_step_seconds());
  std::printf("augmented-solve iterations per chunk: %zu total\n",
              stats.block_iterations);
  std::printf("solver status: %s", solver::to_string(stats.solver_status));
  if (stats.guess_fallbacks > 0) {
    std::printf(" (augmented solves failed: %zu; their steps solved from "
                "zero guesses)",
                stats.guess_fallbacks);
  }
  std::printf("\n");
  std::printf("resilience: rollbacks %zu, degradations %zu, recoveries %zu"
              " (level: %s)\n",
              stats.rollbacks, stats.degradations, stats.recovery_promotions,
              core::to_string(runner.level()));
  if (stepper->autotuning() && stepper->tuner().has_value()) {
    std::printf("autotune: m = %zu (retunes: %zu, smoothed B = %.3g GB/s)\n",
                stepper->tuner()->current_m(), stepper->tuner()->retunes(),
                stepper->tuner()->smoothed_bandwidth() / 1e9);
  }
  double mean_iters = 0.0;
  std::size_t guessed_steps = 0;
  for (const auto& rec : stats.steps) {
    if (rec.step % static_cast<std::size_t>(rhs) != 0) {
      mean_iters += static_cast<double>(rec.iters_first_solve);
      ++guessed_steps;
    }
  }
  if (guessed_steps > 0) {
    std::printf("mean first-solve iterations with MRHS guesses: %.1f\n",
                mean_iters / static_cast<double>(guessed_steps));
  }
  std::printf("mean squared displacement: %.4g (radius units^2)\n",
              sim->system().mean_squared_displacement());
  const sd::AssemblyEngine& engine = sim->engine();
  std::printf("assembly: tolerance %.3g, pair searches %zu, "
              "pairs recomputed %zu, blocks reused %zu\n",
              engine.tolerance(), engine.pattern_rebuilds(),
              engine.pairs_dirty_total(), engine.blocks_reused_total());
  std::printf("\nphase breakdown (s/step):\n");
  for (const auto& name : stats.timers.names()) {
    std::printf("  %-14s %.4f\n", name.c_str(),
                stats.timers.seconds(name) /
                    static_cast<double>(stats.steps.size()));
  }
  if (!positions_out.empty() && !write_positions(*sim, positions_out)) {
    return 1;
  }
  obs_cli.finish();
  const bool healthy =
      solver::solve_succeeded(stats.solver_status) && !stats.resilience_gave_up;
  return healthy ? 0 : 3;
}
