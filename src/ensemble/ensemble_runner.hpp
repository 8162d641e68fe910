// Fault-isolated ensemble stepping: K trajectories, one block phase.
//
// Krasnopolsky's multiple-ensembles observation (PAPERS.md,
// arXiv:1711.10622) is that the MRHS trick amortizes matrix traffic
// not just across the right-hand sides of one simulation but across
// *independent simulations* of the same system: K members' RHS
// vectors pack into one MultiVector and ride one block kernel sweep.
// The EnsembleRunner implements that sharing with a robustness
// contract the single-run steppers cannot offer — per-member fault
// containment:
//
//   * Every member is a scenario (own counter-keyed noise seed, own
//     kT, own trajectory length) of one shared base configuration. All
//     members start from the identical pristine packing.
//   * Per round, every active member contributes its next chunk of
//     noise columns to one packed MultiVector; a single shared block
//     Chebyshev against the fixed reference operator R_ref (assembled
//     once from the pristine configuration) turns them into Brownian
//     RHS columns — the K-way amortized matrix traffic. Initial-guess
//     solves then run per member against R_ref (a failed one drops the
//     member's guesses, core::fall_back_to_zero_guesses), and each
//     member steps through core::sd_step with its own matrices,
//     recalibrating its Chebyshev interval on the first step of every
//     round.
//   * Everything shared is per-column independent (elementwise
//     recurrences + GSPMV columns), and everything member-specific
//     (noise, Lanczos interval, guess block, step matrices) is a
//     function of that member's scenario alone — so a member's
//     trajectory is bitwise invariant to who else is in the pack, and
//     an evicted neighbor leaves no numerical trace.
//   * Containment: every member drives its own core::ContainmentLadder
//     (core/resilience.hpp, shared with ResilientRunner): one epoch per
//     round, one rung (halve the member's dt), eviction on giving up.
//     Strikes are corrupt health verdicts and non-finite packed RHS
//     columns, caught by the pack-stage firewall before the shared
//     kernel. A rollback replays only that member, bitwise for
//     transient faults; an eviction shrinks the pack to K-1 columns'
//     worth next round. Healthy members never stall or re-run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/health.hpp"
#include "core/resilience.hpp"
#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "sd/particle_system.hpp"
#include "solver/chebyshev.hpp"
#include "solver/lanczos.hpp"
#include "solver/operator.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/multivector.hpp"

namespace mrhs::ensemble {

/// One ensemble member's identity: a scenario of the shared system.
struct Scenario {
  /// Caller-assigned identity (the job id in the serving queue).
  std::uint64_t id = 0;
  /// Seed of this member's counter-keyed noise stream.
  std::uint64_t noise_seed = 1;
  /// Member temperature; negative inherits the base config's kT.
  double kT = -1.0;
  /// Trajectory length in steps.
  std::size_t steps = 8;
};

enum class MemberState : std::uint8_t {
  kActive = 0,
  kCompleted,
  kEvicted,
  kTimedOut,
};

[[nodiscard]] constexpr const char* to_string(MemberState s) {
  switch (s) {
    case MemberState::kActive: return "active";
    case MemberState::kCompleted: return "completed";
    case MemberState::kEvicted: return "evicted";
    case MemberState::kTimedOut: return "timeout";
  }
  return "unknown";
}

/// Lifetime rollback budget of every member's containment ladder.
inline constexpr std::size_t kMaxMemberRollbacks = 6;

struct EnsembleOptions {
  /// m: guess columns per member per round (the member-local MRHS
  /// chunk width; the packed block is m summed over active members).
  std::size_t rhs = 8;
  core::HealthConfig health{};
};

/// Outcome of one member after run().
struct MemberReport {
  std::uint64_t id = 0;
  MemberState state = MemberState::kActive;
  std::size_t steps_done = 0;
  /// Which health check (or pack-stage firewall, reported as
  /// kNonFinite) caused the last containment event.
  core::HealthCheck last_fault = core::HealthCheck::kNone;
  /// Mean squared displacement of the final configuration.
  double msd = 0.0;
  /// CRC-32 over the final particle positions (bitwise fingerprint).
  std::uint32_t positions_crc = 0;
  /// Per-member solver/step statistics: first-solve iterations, phase
  /// timers, and the ladder's rollbacks and dt halvings (degradations).
  core::RunStats stats;
};

class EnsembleRunner {
 public:
  /// Packs the base configuration once (every member starts from the
  /// same pristine system) and assembles the shared reference operator
  /// R_ref on it. `base.seed` seeds the packing only; member noise
  /// comes from each scenario's own noise_seed.
  explicit EnsembleRunner(const core::SdConfig& base,
                          EnsembleOptions options = {});

  /// Register a member before run(). Returns the scenario id.
  std::uint64_t add_member(const Scenario& scenario);

  /// Deadline oracle, consulted per member at every round boundary;
  /// return true to retire the member as kTimedOut. The serving queue
  /// maps job deadlines through this.
  void set_deadline_hook(std::function<bool(std::uint64_t id)> expired) {
    deadline_hook_ = std::move(expired);
  }

  /// Test seam: invoked after every completed member step, before the
  /// health check — the place to model silent state corruption without
  /// a fault-injection build (mirrors ResilientRunner's hook; the
  /// mutable system reference is the corruption surface).
  void set_post_step_hook(std::function<void(std::uint64_t id,
                                             std::size_t step,
                                             sd::ParticleSystem& system)>
                              hook) {
    post_step_hook_ = std::move(hook);
  }

  /// Run every member to a terminal state (completed, evicted, or
  /// timed out). One call per runner.
  [[nodiscard]] std::vector<MemberReport> run();

  /// Shared-phase statistics (the packed block Chebyshev traffic that
  /// no single member owns).
  [[nodiscard]] const core::RunStats& shared_stats() const {
    return shared_stats_;
  }
  [[nodiscard]] std::size_t rounds() const { return rounds_; }
  /// Rounds whose pack width shrank because a member left the
  /// ensemble (eviction, completion, timeout).
  [[nodiscard]] std::size_t repacks() const { return repacks_; }
  [[nodiscard]] const solver::EigBounds& reference_bounds() const {
    return ref_bounds_;
  }

 private:
  struct Member {
    Scenario scenario;
    std::optional<core::SdSimulation> sim;
    std::optional<core::StepHealthMonitor> monitor;
    MemberState state = MemberState::kActive;
    std::size_t step = 0;
    /// One epoch per round; rung 1 halves the member's dt.
    core::ContainmentLadder ladder{1, kMaxMemberRollbacks};
    core::HealthCheck last_fault = core::HealthCheck::kNone;
    core::RunStats stats;
    // Round-scoped state.
    std::size_t round_cols = 0;
    bool guesses_ok = false;
    solver::EigBounds round_bounds{};
    sparse::MultiVector guesses;
  };

  /// Round start: size the member's round and open its ladder epoch
  /// (the rollback snapshot). Calibration happens in the round's first step, so a
  /// replay from the snapshot recalibrates from the same engine state.
  void begin_member_round(Member& m);
  /// Generate and validate the member's noise columns into the pack.
  /// Non-finite columns (the member-RHS fault site) are contained
  /// here, before the shared kernel ever sees them; an eviction zeroes
  /// the member's slice.
  void pack_member_columns(Member& m, sparse::MultiVector& pack,
                           std::size_t first_col);
  /// Per-member guess solve against R_ref (never spans members).
  void solve_member_guesses(Member& m, const sparse::MultiVector& pack,
                            std::size_t first_col);
  /// Step the member through its round columns with health checking
  /// and the containment ladder.
  void step_member(Member& m);
  /// One strike on the member's ladder: roll back to the round-start
  /// snapshot and apply the rung's dt. Returns false when the ladder
  /// gave up and the member was evicted.
  bool contain(Member& m, core::HealthCheck why);
  void finalize(Member& m, MemberState state);

  core::SdConfig base_;
  EnsembleOptions options_;
  /// Pristine t=0 configuration every member starts from.
  sd::ParticleSystem pristine_;
  double dt0_ = 0.0;
  double mean_radius_ = 1.0;
  /// Shared reference operator (pristine configuration) driving the
  /// packed Chebyshev and every guess solve; fixed for the runner's
  /// lifetime so it is invariant to ensemble membership.
  sparse::BcrsMatrix ref_matrix_;
  std::optional<solver::BcrsOperator> ref_op_;
  solver::EigBounds ref_bounds_{};
  std::optional<solver::ChebyshevSqrt> ref_cheb_;

  std::vector<Member> members_;
  std::function<bool(std::uint64_t)> deadline_hook_;
  std::function<void(std::uint64_t, std::size_t, sd::ParticleSystem&)>
      post_step_hook_;
  core::RunStats shared_stats_;
  std::size_t rounds_ = 0;
  std::size_t repacks_ = 0;
  bool ran_ = false;
};

}  // namespace mrhs::ensemble
