// Stateful resistance assembly with incremental block updates.
//
// The paper's core observation — configurations drift like sqrt(t) —
// is exploited here for the Construct phase the way the MRHS solver
// exploits it for initial guesses: between steps almost nothing about
// the lubrication matrix changes. The engine therefore keeps, across
// calls,
//
//   * a *sparsity pattern* built with a Verlet skin: every pair within
//     the lubrication reach plus `skin` gets a stored (zero-capable)
//     block, so pairs can drift in and out of activity without
//     structural changes. The pattern stays valid until some particle
//     moves more than skin/2 from its pattern-build position; the
//     rebuild is a tracked, counted event (pattern epoch,
//     assembly.pattern_rebuilds).
//   * a *dirty-pair tracker*: per pair, the positions of both bodies
//     at the moment its tensor was last computed. A call to
//     assemble_incremental() recomputes a pair tensor only once the
//     summed displacement of its two particles since then exceeds the
//     tolerance; clean pairs keep their cached tensor bitwise
//     (assembly.pairs_dirty / assembly.blocks_reused).
//
// tolerance = 0 disables reuse entirely: assemble_incremental() then
// routes to assemble_full() and is bitwise identical to it (the
// pattern superset would otherwise perturb floating-point
// accumulation order). With tolerance > 0 the trajectory deviates
// from the reference in a controlled way — bench/abl04 measures the
// speedup/divergence trade-off.
//
// Engine state (tolerance, skin, epoch, reference positions) is
// exported/imported alongside the stepper state so checkpoint resume
// and resilience rollback reproduce trajectories bitwise even with
// reuse enabled: tensors are *not* serialized — they are pure
// functions of the reference positions and are recomputed on import.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sd/particle_system.hpp"
#include "sd/resistance.hpp"
#include "sd/vec3.hpp"
#include "sparse/bcrs.hpp"

namespace mrhs::sd {

/// Everything one assembly produces: the matrix plus the statistics
/// gathered while building it. Returning both together (instead of an
/// out-parameter) means no caller can forget the stats or read a
/// half-written struct on an error path.
struct AssemblyResult {
  sparse::BcrsMatrix matrix;
  AssemblyStats stats;
};

struct AssemblyOptions {
  /// Per-pair displacement tolerance, in absolute length units. A
  /// pair's lubrication tensor is recomputed only once the summed
  /// drift of its two particles since the tensor was last computed
  /// exceeds this. 0 (default) disables reuse: every call takes the
  /// full-rebuild path and is bitwise identical to assemble_full().
  double tolerance = 0.0;
  /// Verlet margin added to the pair reach when the sparsity pattern
  /// is built; the pattern survives until some particle drifts more
  /// than skin/2 from its pattern-build position. <= 0 (default)
  /// derives 6 * tolerance — wide enough that block refreshes, not
  /// pattern rebuilds, dominate.
  double skin = 0.0;
};

/// Serializable engine state (checkpoint payload v3, resilience
/// snapshots). Pair tensors are deliberately absent: each one is a
/// pure function of the pair's reference positions, so import
/// recomputes them bitwise instead of storing 9 doubles per pair.
struct AssemblyEngineState {
  double tolerance = 0.0;
  double skin = 0.0;
  std::uint64_t pattern_epoch = 0;
  bool has_pattern = false;
  /// Per-particle positions at pattern build (pattern re-enumeration
  /// on import reproduces the slot layout deterministically).
  std::vector<Vec3> pattern_refs;
  /// Per pattern pair, the two reference positions the cached tensor
  /// was computed at: ref_i then ref_j, in pattern order.
  std::vector<Vec3> pair_refs;
};

class AssemblyEngine {
 public:
  explicit AssemblyEngine(ResistanceParams params,
                          AssemblyOptions options = {});

  [[nodiscard]] const ResistanceParams& params() const { return params_; }
  [[nodiscard]] double tolerance() const { return tolerance_; }
  [[nodiscard]] double skin() const { return skin_; }
  [[nodiscard]] bool has_pattern() const { return has_pattern_; }
  [[nodiscard]] std::uint64_t pattern_epoch() const { return epoch_; }

  /// Lifetime totals, mirrors of the assembly.* obs counters (benches
  /// and the quickstart summary read these without an obs exporter).
  [[nodiscard]] std::uint64_t pattern_rebuilds() const {
    return rebuilds_total_;
  }
  [[nodiscard]] std::uint64_t pairs_dirty_total() const {
    return dirty_total_;
  }
  [[nodiscard]] std::uint64_t blocks_reused_total() const {
    return reused_total_;
  }

  /// Assemble R at the current configuration into the matrix this
  /// engine owns and lend it out. Incremental path: reuse the cached
  /// sparsity pattern and every clean pair tensor, recompute only
  /// dirty pairs, and fall back to a (counted) pattern rebuild when no
  /// pattern exists or a particle outran the skin. With tolerance == 0
  /// it takes the full path instead. The reference stays valid, and
  /// the matrix unchanged, until this engine assembles again; every
  /// assembly refills the same arrays, so steppers allocate nothing
  /// per step.
  [[nodiscard]] const sparse::BcrsMatrix& assemble(
      const ParticleSystem& system);

  /// Reference path, by value: rebuild R from scratch at the current
  /// configuration (legacy full assembly). Discards any cached
  /// pattern, so a later assembly starts fresh.
  [[nodiscard]] AssemblyResult assemble_full(const ParticleSystem& system);

  /// assemble(), returning a copy of the matrix with its statistics.
  [[nodiscard]] AssemblyResult assemble_incremental(
      const ParticleSystem& system);

  [[nodiscard]] AssemblyEngineState export_state() const;

  /// Restore from an exported state. `system` supplies radii and box
  /// (invariant over a trajectory); the pattern is re-enumerated at
  /// the stored reference positions and every tensor recomputed from
  /// its pair references, reproducing the exported engine bitwise. A
  /// state that does not match `system` degrades to "no pattern"
  /// (the next incremental call rebuilds) instead of failing.
  void import_state(const AssemblyEngineState& state,
                    const ParticleSystem& system);

 private:
  struct PairSlot {
    std::int32_t i;
    std::int32_t j;
    std::int64_t slot_ij;  // stored block (i, j) in the cached matrix
    std::int64_t slot_ji;  // stored block (j, i)
    Vec3 ref_i;            // positions at last tensor recompute
    Vec3 ref_j;
    double tensor[9];
    bool active;
    double scaled_gap;  // clamped xi; only meaningful when active
  };

  /// The full path into cached_, reusing its arrays.
  void refill_full(const ParticleSystem& system);
  /// Re-enumerate pairs with the skin-widened reach and lay out the
  /// BCRS pattern (diagonal + both off-diagonal slots per pair,
  /// columns sorted). Computes fresh tensors for every pair and bumps
  /// the epoch.
  void rebuild_pattern(const ParticleSystem& system, AssemblyStats& stats);
  /// True when some particle drifted more than skin/2 since the
  /// pattern was built (a pair outside the pattern could become
  /// active — conservative Verlet criterion).
  [[nodiscard]] bool pattern_expired(const ParticleSystem& system) const;
  /// Recompute tensors of pairs whose accumulated displacement
  /// exceeds the tolerance; account clean pairs as reused.
  void refresh_dirty_pairs(const ParticleSystem& system,
                           AssemblyStats& stats);
  /// Recompute one pair's activity/tensor from its reference
  /// positions (used by both refresh and import).
  void recompute_pair(PairSlot& p, const ParticleSystem& system);
  /// Zero the cached values and scatter drag + pair tensors in fixed
  /// pattern order (deterministic accumulation while the pattern
  /// lives).
  void fill_values(const ParticleSystem& system);

  ResistanceParams params_;
  double tolerance_;
  double skin_;
  /// The tolerance = 0 / assemble_full() reference path.
  ResistanceAssembler full_;

  bool has_pattern_ = false;
  std::uint64_t epoch_ = 0;
  std::vector<PairSlot> pairs_;
  std::vector<std::int64_t> diag_slot_;  // per particle
  std::vector<Vec3> pattern_refs_;       // positions at pattern build
  /// The matrix of the last assembly, lent out by assemble(): the
  /// live pattern with its last values, or the full path's output.
  /// Every assembly refills its arrays.
  sparse::BcrsMatrix cached_;
  /// Statistics of the last assembly, for the by-value paths.
  AssemblyStats last_stats_{};

  std::uint64_t rebuilds_total_ = 0;
  std::uint64_t dirty_total_ = 0;
  std::uint64_t reused_total_ = 0;
};

}  // namespace mrhs::sd
