// SD time stepping. The paper's two algorithms share one step
// primitive, sd_step(): construct R_k, optionally recalibrate the
// Chebyshev interval on it, compute the Brownian force with a
// single-vector Chebyshev polynomial, solve R_k u_k = -f_B from a given
// initial guess, and solve the midpoint system R_{k+1/2} u = -f_B
// seeded with u_k. The algorithms differ only in where that guess
// comes from:
//
//   OriginalAlgorithm — Algorithm 1: sd_step from a zero guess every
//     step, recalibrating every `bounds_refresh` steps.
//
//   MrhsAlgorithm — Algorithm 2 (the contribution): per chunk of m
//     steps, compute all m Brownian forces at once with block
//     Chebyshev (GSPMV), solve the augmented system R_0 U = F_B with
//     the multi-RHS CG (one GSPMV per iteration, one recurrence per
//     column), and run sd_step with column k of U as the initial guess
//     of step k (step 0 takes column 0 as its solution).
//
// Two comparators keep their own loops, because their force and solve
// differ: CholeskyAlgorithm (dense factor, paper Section II-C) and
// BrownianDynamicsAlgorithm (far-field mobility, no midpoint).
//
// Phase names in the emitted timings match the rows of paper
// Tables VI and VII.
//
// Every algorithm exposes export_state()/import_state() so a run can
// be checkpointed and resumed bitwise (see core/checkpoint.hpp). For
// the MRHS algorithm that state includes the mid-chunk carry-over:
// the stashed initial-guess block, the chunk's Chebyshev interval,
// and the chunk cursor. Chunk boundaries are deterministic functions
// of the step index once a horizon is set (set_horizon), so a
// stopped-and-resumed trajectory chunks identically to a straight one.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/sd_simulation.hpp"
#include "perf/mtuner.hpp"
#include "solver/fault_tolerance.hpp"
#include "solver/lanczos.hpp"
#include "solver/solve_controls.hpp"
#include "sparse/multivector.hpp"
#include "util/timer.hpp"

namespace mrhs::core {

/// Per-step diagnostics (Fig 5, Fig 6, Table V).
struct StepRecord {
  std::size_t step = 0;
  std::size_t iters_first_solve = 0;
  std::size_t iters_second_solve = 0;
  /// ||u_k - u'_k|| / ||u_k||, guess vs converged solution; negative
  /// when the step had no initial guess.
  double guess_rel_error = -1.0;
};

struct RunStats {
  util::PhaseTimers timers;
  std::vector<StepRecord> steps;
  /// Total iterations (GSPMV sweeps) spent on augmented systems (MRHS
  /// and ensemble only).
  std::size_t block_iterations = 0;
  double seconds_total = 0.0;
  /// Worst solver outcome observed during the run: kConverged for a
  /// clean run, kRecovered when an augmented solve failed and its
  /// steps solved from zero guesses instead (see
  /// fall_back_to_zero_guesses), kBreakdown/kMaxIters when a per-step
  /// solve failed.
  solver::SolveStatus solver_status = solver::SolveStatus::kConverged;
  /// Augmented solves that failed, so their guesses were dropped.
  std::size_t guess_fallbacks = 0;
  /// Containment events (core/resilience.hpp): snapshot rollbacks
  /// after strikes, degradation-ladder rungs descended, rungs promoted
  /// back after rollback-free epochs, and whether the ladder gave up
  /// (budget spent, or a repeat strike on the last rung).
  std::size_t rollbacks = 0;
  std::size_t degradations = 0;
  std::size_t recovery_promotions = 0;
  bool resilience_gave_up = false;

  /// Fold another run's stats into this one (chunked/segmented runs).
  void merge(const RunStats& other);

  [[nodiscard]] double avg_step_seconds() const {
    return steps.empty() ? 0.0
                         : seconds_total / static_cast<double>(steps.size());
  }
  [[nodiscard]] double mean_first_solve_iters() const;
};

/// Phase labels (paper Tables VI/VII rows).
namespace phase {
inline constexpr const char* kConstruct = "Construct";
inline constexpr const char* kEigBounds = "Eig bounds";
inline constexpr const char* kChebVectors = "Cheb vectors";
inline constexpr const char* kCalcGuesses = "Calc guesses";
inline constexpr const char* kChebSingle = "Cheb single";
inline constexpr const char* kFirstSolve = "1st solve";
inline constexpr const char* kSecondSolve = "2nd solve";
}  // namespace phase

/// One bag of knobs shared by every stepping algorithm, replacing the
/// previous ad-hoc positional constructor arguments. Each algorithm
/// reads only the fields it understands; designated initializers keep
/// call sites self-documenting: `MrhsAlgorithm alg(sim, {.rhs = 16})`.
struct AlgorithmConfig {
  /// m, the number of right-hand sides per MRHS chunk.
  std::size_t rhs = 8;
  /// Lanczos recalibration period in steps (single-vector paths).
  std::size_t bounds_refresh = 16;
  /// Size guard for the dense O(n^3) path: CholeskyAlgorithm refuses
  /// systems above this many scalar degrees of freedom.
  std::size_t max_dense_dof = 3600;
  /// MRHS only: let perf::MTuner pick and adapt m online. `rhs` still
  /// sizes the first chunk (the matrix shape is unknown before the
  /// first assembly); from the second chunk on the tuner re-selects m
  /// at every chunk boundary, seeded from the quick machine probe's
  /// B/F through the paper's crossover model.
  bool autotune = false;
  /// Upper bound the tuner may select (grid-clamped).
  std::size_t autotune_max_m = 64;
};

/// The one explicit-midpoint SD step: construct R_k; when `calibrate`,
/// refresh `bounds` with Lanczos on R_k; compute the Brownian force
/// with a single-vector Chebyshev over `bounds`; solve from `guess`
/// (empty = zero guess); then midpoint-correct and advance.
/// OriginalAlgorithm steps through it with zero guesses, MrhsAlgorithm
/// for every step after a chunk head, and the ensemble runner for every
/// member step (calibrating on a round's first step), so a member steps
/// bitwise-identically whether it runs solo or packed. Appends the
/// step's StepRecord to `stats.steps` and returns it.
StepRecord sd_step(SdSimulation& sim, std::size_t step,
                   solver::EigBounds& bounds, bool calibrate,
                   std::span<const double> guess, RunStats& stats);

/// The one policy for a failed augmented solve, at an MRHS chunk head
/// or for an ensemble member: zero the guesses, count a guess fallback
/// and fold kRecovered into the run's status. Every step of the chunk
/// still solves to tolerance, from a zero guess.
void fall_back_to_zero_guesses(sparse::MultiVector& guesses,
                               RunStats& stats);

/// Checkpointable state of the single-vector algorithms: the step
/// cursor plus the cached Lanczos interval (refreshed every
/// `bounds_refresh` steps — resuming without it would recalibrate at
/// the wrong step and change the Chebyshev polynomial bitwise).
struct AlgorithmState {
  std::size_t step = 0;
  solver::EigBounds bounds{};
  bool have_bounds = false;
};

class OriginalAlgorithm {
 public:
  explicit OriginalAlgorithm(SdSimulation& sim, AlgorithmConfig config = {});

  /// Advance `count` steps; appends to the simulation trajectory.
  RunStats run(std::size_t count);

  [[nodiscard]] std::size_t current_step() const { return step_; }

  [[nodiscard]] AlgorithmState export_state() const;
  void import_state(const AlgorithmState& state);

 private:
  SdSimulation* sim_;
  std::size_t bounds_refresh_;
  std::size_t step_ = 0;
  solver::EigBounds bounds_{};
  bool have_bounds_ = false;
};

/// The paper's small-problem path (Section II-C): one dense Cholesky
/// factorization of R_k per step provides the Brownian force exactly
/// (f_B = L z), the first solve directly, and the midpoint solve via
/// iterative refinement with the *frozen* factor — "only one Cholesky
/// factorization, rather than two, is needed per time step."
/// O(n^3): refuses systems above `max_dof`.
class CholeskyAlgorithm {
 public:
  explicit CholeskyAlgorithm(SdSimulation& sim, AlgorithmConfig config = {});

  RunStats run(std::size_t count);

  [[nodiscard]] std::size_t current_step() const { return step_; }

  /// The dense path keeps no cross-step caches; only the cursor.
  [[nodiscard]] AlgorithmState export_state() const { return {step_, {}, false}; }
  void import_state(const AlgorithmState& state) { step_ = state.step; }

 private:
  SdSimulation* sim_;
  std::size_t step_ = 0;
};

namespace phase_direct {
inline constexpr const char* kFactor = "Cholesky factor";
inline constexpr const char* kBrownian = "Brownian (L z)";
}  // namespace phase_direct

/// Brownian dynamics comparator (Ermak–McCammon with RPY mobility):
/// the method the paper contrasts SD against. Displacements come
/// directly from the far-field mobility,
///   dr = sqrt(2 kT dt) S(M) z   (S(M) ~ sqrt(M_inf), Chebyshev),
/// with no lubrication — so it is cheap but "cannot accurately model
/// short-range forces" and is only valid for dilute systems. The RPY
/// divergence is zero (paper Section II-C), so no midpoint correction
/// is needed. O(n^2) per apply via the matrix-free mobility operator.
class BrownianDynamicsAlgorithm {
 public:
  explicit BrownianDynamicsAlgorithm(SdSimulation& sim,
                                     AlgorithmConfig config = {});

  RunStats run(std::size_t count);

  [[nodiscard]] std::size_t current_step() const { return step_; }

  [[nodiscard]] AlgorithmState export_state() const;
  void import_state(const AlgorithmState& state);

 private:
  SdSimulation* sim_;
  std::size_t bounds_refresh_;
  std::size_t step_ = 0;
  solver::EigBounds bounds_{};
  bool have_bounds_ = false;
};

/// Checkpointable state of the MRHS algorithm. A chunk that is still
/// in flight carries the block-solve products forward: the stashed
/// initial-guess MultiVector (column k seeds step chunk_start + k) and
/// the Chebyshev interval calibrated on R_0 of the chunk. Everything
/// else each step needs is reconstructed from the particle positions
/// and the counter-keyed noise stream.
struct MrhsState {
  std::size_t step = 0;
  bool horizon_set = false;
  std::size_t horizon_end = 0;
  bool chunk_active = false;
  std::size_t chunk_start = 0;
  std::size_t chunk_len = 0;
  std::size_t chunk_pos = 0;
  /// False when the chunk's augmented solve failed; remaining steps
  /// of the chunk then run from zero guesses.
  bool chunk_guesses_ok = false;
  solver::EigBounds chunk_bounds{};
  sparse::MultiVector chunk_guesses;
};

class MrhsAlgorithm {
 public:
  /// `config.rhs` is m, the number of right-hand sides per chunk.
  explicit MrhsAlgorithm(SdSimulation& sim, AlgorithmConfig config = {});

  /// Advance `count` steps (processed in chunks of m; a final partial
  /// chunk uses fewer right-hand sides). Without a horizon, each call
  /// chunks against its own `count` (legacy behavior); after
  /// set_horizon, chunk boundaries depend only on the absolute step
  /// index, so split calls reproduce a straight run bitwise.
  RunStats run(std::size_t count);

  /// Declare that `total_remaining` more steps are planned from the
  /// current step. Chunk boundaries are laid out against that horizon,
  /// which makes them invariant under how run() calls are split —
  /// the property checkpoint/resume needs.
  void set_horizon(std::size_t total_remaining);

  [[nodiscard]] std::size_t current_step() const { return step_; }
  [[nodiscard]] std::size_t rhs() const { return rhs_; }
  [[nodiscard]] bool horizon_set() const { return horizon_set_; }

  /// Change m; takes effect at the next chunk (a chunk in flight keeps
  /// its width). The resilience ladder uses this to degrade/recover.
  /// Under autotuning the tuner rebases on the imposed value instead
  /// of fighting it (a ladder degradation sticks until the tuner sees
  /// fresh bandwidth evidence).
  void set_rhs(std::size_t rhs) {
    rhs_ = rhs == 0 ? 1 : rhs;
    if (tuner_.has_value()) tuner_->force_current(rhs_);
  }

  /// Autotuner introspection (monostate until the second chunk).
  [[nodiscard]] bool autotuning() const { return autotune_; }
  [[nodiscard]] const std::optional<perf::MTuner>& tuner() const {
    return tuner_;
  }

  /// Chebyshev interval of the current/most recent chunk (lambda_min
  /// is 0 until the first chunk calibrates one).
  [[nodiscard]] const solver::EigBounds& chunk_bounds() const {
    return chunk_bounds_;
  }

  [[nodiscard]] MrhsState export_state() const;
  void import_state(MrhsState state);

  /// Test-only: wrap the chunk operator R_0 in a FaultInjectingOperator
  /// for every subsequent chunk, to exercise a failed augmented solve
  /// end to end. The plan counts block applications per chunk.
  void inject_fault_for_testing(solver::FaultInjection plan) {
    fault_plan_ = plan;
  }

 private:
  void begin_chunk(RunStats& stats, std::size_t call_end);
  void step_in_chunk(RunStats& stats);
  /// Chunk-boundary hook: construct the tuner once the matrix shape is
  /// known, feed it the achieved-bandwidth counter deltas, and adopt
  /// its (at most one grid step) re-selection of m.
  void maybe_retune();

  SdSimulation* sim_;
  std::size_t rhs_;
  std::size_t step_ = 0;
  bool horizon_set_ = false;
  std::size_t horizon_end_ = 0;
  bool chunk_active_ = false;
  std::size_t chunk_start_ = 0;
  std::size_t chunk_len_ = 0;
  std::size_t chunk_pos_ = 0;
  bool chunk_guesses_ok_ = false;
  solver::EigBounds chunk_bounds_{};
  sparse::MultiVector chunk_guesses_;
  std::optional<solver::FaultInjection> fault_plan_;
  // Online m-autotuning (config.autotune). The tuner is constructed
  // lazily at the first chunk boundary after a matrix shape exists.
  bool autotune_ = false;
  std::size_t autotune_max_m_ = 64;
  std::optional<perf::MTuner> tuner_;
  std::size_t tuner_block_rows_ = 0;
  std::size_t tuner_nnzb_ = 0;
  double tuner_bytes_seen_ = 0.0;
  double tuner_seconds_seen_ = 0.0;
};

}  // namespace mrhs::core
