// Checkpoint/restart for SD trajectories.
//
// A checkpoint captures everything a resumed process needs to continue
// the trajectory *bitwise*: the configuration, the derived step size,
// the full kinematic state (wrapped positions plus unwrapped
// displacements), and the stepping algorithm's carry-over state — for
// the MRHS algorithm that includes the stashed initial-guess
// MultiVector and the chunk's Chebyshev interval, so a resume can land
// in the middle of a chunk. Noise needs no storage at all: the stream
// is counter-keyed by (seed, step), so the resumed process regenerates
// the identical forcing from the step index alone.
//
// On disk a checkpoint is a single binary file:
//
//   "MRHSCKPT" | u32 version | u64 payload size | payload | u32 CRC32
//
// with every integer little-endian and every double stored as its
// IEEE-754 bit pattern (exact — no text round-trip). A human-readable
// JSON sidecar is written next to it at `<path>.json` for tooling;
// loading reads only the binary file. Corruption (bad magic, short
// file, CRC mismatch) and version skew are reported through
// core::Status, never by crashing or silently truncating state.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/sd_simulation.hpp"
#include "core/status.hpp"
#include "core/stepper.hpp"
#include "perf/machine.hpp"
#include "sd/vec3.hpp"

namespace mrhs::core {

/// v4: the run summary carries guess_fallbacks alone (v3 also stored a
/// ladder-recovery count).
/// v5: the assembly state's pair references follow the candidate
/// list's canonical (i, j) order (v4 used the cell list's emission
/// order, which differs on a cell grid).
inline constexpr std::uint32_t kCheckpointVersion = 5;

/// Caps on config fields that size allocations or worker pools on
/// resume: load and restore_simulation reject a config past them (or
/// with a Chebyshev order of 0; the paper's is 30) as kCorruptData.
inline constexpr std::size_t kMaxCheckpointChebyshevOrder = 1024;
inline constexpr std::size_t kMaxCheckpointThreads = 1024;

/// Which stepping algorithm the checkpoint belongs to; a checkpoint
/// resumes only with the same algorithm (the carry-over state is
/// algorithm-specific).
enum class CheckpointAlgorithm : std::uint8_t {
  kOriginal = 0,
  kCholesky = 1,
  kBrownianDynamics = 2,
  kMrhs = 3,
};

[[nodiscard]] constexpr const char* to_string(CheckpointAlgorithm a) {
  switch (a) {
    case CheckpointAlgorithm::kOriginal: return "original";
    case CheckpointAlgorithm::kCholesky: return "cholesky";
    case CheckpointAlgorithm::kBrownianDynamics: return "brownian_dynamics";
    case CheckpointAlgorithm::kMrhs: return "mrhs";
  }
  return "unknown";
}

/// Cumulative run outcome carried across restarts. StepRecords and
/// timers are per-process, but the *worst* solver status and the
/// resilience counters describe the whole trajectory — without them a
/// resumed run would report a clean final RunStats even though the
/// pre-restart leg recovered from faults.
struct RunStatsSummary {
  solver::SolveStatus solver_status = solver::SolveStatus::kConverged;
  std::size_t guess_fallbacks = 0;
  std::size_t rollbacks = 0;
  std::size_t degradations = 0;
  std::size_t recovery_promotions = 0;
  bool resilience_gave_up = false;

  [[nodiscard]] static RunStatsSummary from(const RunStats& stats) {
    RunStatsSummary s;
    s.solver_status = stats.solver_status;
    s.guess_fallbacks = stats.guess_fallbacks;
    s.rollbacks = stats.rollbacks;
    s.degradations = stats.degradations;
    s.recovery_promotions = stats.recovery_promotions;
    s.resilience_gave_up = stats.resilience_gave_up;
    return s;
  }

  /// Seed a resumed run's stats with the pre-restart history, so the
  /// final merged RunStats matches a straight run's.
  void apply_to(RunStats& stats) const {
    stats.solver_status =
        solver::worse_status(stats.solver_status, solver_status);
    stats.guess_fallbacks += guess_fallbacks;
    stats.rollbacks += rollbacks;
    stats.degradations += degradations;
    stats.recovery_promotions += recovery_promotions;
    stats.resilience_gave_up = stats.resilience_gave_up || resilience_gave_up;
  }
};

/// In-memory image of a checkpoint.
struct Checkpoint {
  SdConfig config{};
  double dt = 0.0;
  double mean_radius = 0.0;
  double box_length = 0.0;
  std::vector<sd::Vec3> positions;
  std::vector<sd::Vec3> unwrapped;
  std::vector<double> radii;
  CheckpointAlgorithm algorithm = CheckpointAlgorithm::kMrhs;
  /// State of the single-vector algorithms (also carries the step
  /// cursor for every algorithm).
  AlgorithmState scalar_state{};
  /// MRHS carry-over; meaningful only when algorithm == kMrhs.
  std::size_t mrhs_rhs = 0;
  MrhsState mrhs_state{};
  /// Run history up to the capture point; capture_checkpoint leaves it
  /// default — callers with accumulated RunStats fill it in
  /// (RunStatsSummary::from) before saving.
  RunStatsSummary stats{};
  /// v3: incremental-assembly engine state (tolerance, skin, pattern
  /// epoch, reference positions). Without it a resume would rebuild
  /// the pattern and refresh every pair at the restart step, breaking
  /// bitwise equality with the straight run whenever
  /// assembly_tolerance > 0.
  sd::AssemblyEngineState assembly{};
};

/// Capture the current simulation + stepper state. The checkpoint is
/// only trajectory-exact when taken between steps (i.e. outside
/// run()), which is the only time callers can reach the stepper.
Checkpoint capture_checkpoint(const SdSimulation& sim,
                              const MrhsAlgorithm& alg);
Checkpoint capture_checkpoint(const SdSimulation& sim,
                              const OriginalAlgorithm& alg);
Checkpoint capture_checkpoint(const SdSimulation& sim,
                              const BrownianDynamicsAlgorithm& alg);
Checkpoint capture_checkpoint(const SdSimulation& sim,
                              const CholeskyAlgorithm& alg);

/// Serialize to `path` (binary) and `<path>.json` (sidecar header).
Status save_checkpoint(const Checkpoint& ck, const std::string& path);

/// Load and validate a checkpoint file. On any failure `out` is left
/// untouched and the Status says why (kIoError / kCorruptData /
/// kVersionMismatch).
Status load_checkpoint(const std::string& path, Checkpoint& out);

/// Read the machine B/F the saving process recorded in the JSON
/// sidecar next to checkpoint `path`. A resume feeds the result to
/// perf::set_machine_quick() BEFORE the first chunk, so the autotuner
/// re-seeds from the same crossover m as the original run instead of
/// re-probing a possibly differently-loaded machine. Advisory: the
/// sidecar is not covered by the binary's CRC, so failure (missing
/// file, pre-dispatch checkpoint) just means "probe afresh".
Status load_machine_sidecar(const std::string& path,
                            perf::MachineParams& out);

/// Rebuild the simulation a checkpoint was taken from. Uses the
/// restore constructor — no re-packing, no re-sampling — so the
/// rebuilt simulation is byte-identical to the captured one.
Status restore_simulation(const Checkpoint& ck,
                          std::optional<SdSimulation>& sim);

}  // namespace mrhs::core
