// Stateful resistance assembly with a Verlet candidate list.
//
// The paper's core observation — configurations drift like sqrt(t) —
// is exploited here for the Construct phase the way the MRHS solver
// exploits it for initial guesses: between steps the set of nearby
// pairs barely changes. The engine therefore keeps a *candidate list*:
// every pair within the lubrication reach plus a skin, in canonical
// (i, j) order, each row's partners sorted by column. It is searched
// again only once some particle has moved more than skin/2 from where
// the last search saw it. A search is a counted event (pattern epoch,
// assembly.pattern_rebuilds).
//
// Every assembly runs one pass over the candidates, stores only the
// active pairs and sums each block row's diagonal in column order;
// an unchanged active set refills the values in place, a changed one
// rebuilds the layout from the list. Both passes are threaded with a
// slot per candidate and a worker per block row, so the bits do not
// depend on the thread count. The tolerance only decides which
// candidates the pass recomputes:
//
// tolerance = 0 (exact): the skin is 0.05 × the largest radius and
// every candidate is recomputed, so the matrix is a pure function of
// the positions. Where the cell list is one cell (below ~1,500
// particles) that is the from-scratch enumeration's order, bit for
// bit.
//
// tolerance > 0 (incremental): the skin is 6 × tolerance. A candidate
// is recomputed on a search, or once the summed displacement of its
// two particles since its last computation exceeds the tolerance;
// clean candidates keep their tensor and activity bitwise
// (assembly.pairs_dirty / assembly.blocks_reused). The trajectory then
// deviates from the exact one in a controlled way; bench/abl04
// measures the speedup/divergence trade-off.
//
// Engine state (tolerance, skin, epoch, reference positions) travels
// with the stepper state, so checkpoint resume and rollback reproduce
// trajectories bitwise with reuse enabled. Tensors are not serialized:
// they are pure functions of the reference positions and are
// recomputed on import. At tolerance 0 the list is not state at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
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
  /// exceeds this. 0 (default) disables reuse: every call recomputes
  /// every candidate and is bitwise identical to assemble_full().
  double tolerance = 0.0;
  /// Workers for the two passes (0 = util::max_threads()). Each
  /// candidate's tensor has its own slot and each block row is summed
  /// by one worker, so the bits do not depend on this.
  int threads = 0;
};

/// Serializable engine state (checkpoint payload v5, resilience
/// snapshots). Pair tensors are deliberately absent: each one is a
/// pure function of the pair's reference positions, so import
/// recomputes them bitwise instead of storing 9 doubles per pair. At
/// tolerance 0 only the tolerance and the epoch mean anything.
struct AssemblyEngineState {
  double tolerance = 0.0;
  double skin = 0.0;
  std::uint64_t pattern_epoch = 0;
  bool has_pattern = false;
  /// Per-particle positions at the last search (a search at them on
  /// import reproduces the candidate list and its order).
  std::vector<Vec3> pattern_refs;
  /// Per candidate, the two reference positions its tensor was
  /// computed at: ref_i then ref_j, in canonical candidate order.
  std::vector<Vec3> pair_refs;
};

class AssemblyEngine {
 public:
  explicit AssemblyEngine(ResistanceParams params,
                          AssemblyOptions options = {});

  [[nodiscard]] const ResistanceParams& params() const { return params_; }
  [[nodiscard]] double tolerance() const { return tolerance_; }
  /// The skin in effect: 6 × tolerance on the incremental path; at
  /// tolerance 0 the candidate list's (0 before the first list).
  [[nodiscard]] double skin() const { return skin_; }
  [[nodiscard]] bool has_pattern() const { return has_list_; }
  [[nodiscard]] std::uint64_t pattern_epoch() const { return epoch_; }

  /// Lifetime totals, mirrors of the assembly.* obs counters (benches
  /// and the quickstart summary read these without an obs exporter).
  /// pattern_rebuilds() counts candidate-list searches.
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
  /// engine owns and lend it out; the reference stays valid, and the
  /// matrix unchanged, until this engine assembles again. It searches
  /// for pairs only when it has no list or some particle outran the
  /// skin; above tolerance 0 it also keeps every clean candidate's
  /// tensor. Assemblies refill the same arrays, so steppers allocate
  /// nothing per step.
  [[nodiscard]] const sparse::BcrsMatrix& assemble(
      const ParticleSystem& system);

  /// Reference path, by value: drop the candidate list, then search
  /// and recompute every candidate, so the result depends on the
  /// positions alone. A later assembly starts fresh.
  [[nodiscard]] AssemblyResult assemble_full(const ParticleSystem& system);

  /// assemble(), returning a copy of the matrix with its statistics.
  [[nodiscard]] AssemblyResult assemble_incremental(
      const ParticleSystem& system);

  [[nodiscard]] AssemblyEngineState export_state() const;

  /// Restore from an exported state. `system` supplies radii and box
  /// (invariant over a trajectory); above tolerance 0 the list is
  /// searched again at the stored reference positions with the stored
  /// skin and every tensor recomputed from its pair references,
  /// reproducing the exported engine bitwise. A state that does not
  /// match `system` degrades to "no list" (the next call searches)
  /// instead of failing. At tolerance 0 the list is dropped.
  void import_state(const AssemblyEngineState& state,
                    const ParticleSystem& system);

 private:
  /// One entry of a row's candidate adjacency.
  struct Partner {
    std::int32_t col;   // the other particle
    std::int32_t cand;  // its candidate index
  };

  /// Find every pair within the lubrication reach plus the skin
  /// (0.05 × the largest radius at tolerance 0); store them
  /// canonically with each row's adjacency. Bumps the epoch.
  void search_candidates(const ParticleSystem& system);
  void drop_list();
  /// True when some particle drifted more than skin/2 since the last
  /// search (a pair outside the list could now be in reach:
  /// conservative Verlet criterion).
  [[nodiscard]] bool pattern_expired(const ParticleSystem& system) const;
  /// Candidate k's activity and tensor with its particles at x_i and
  /// x_j, with the from-scratch enumeration's arithmetic.
  void compute_candidate(std::size_t k, const Vec3& x_i, const Vec3& x_j,
                         const ParticleSystem& system);
  /// Lay out cached_ for the active candidates, reusing its storage.
  void lay_out_active(std::size_t n);
  /// Block row r: drag plus the active partners' tensors, summed in
  /// column order, on the diagonal; -T in each off-diagonal slot.
  void fill_row(std::size_t r, double drag);

  ResistanceParams params_;
  double tolerance_;
  double skin_;
  int threads_;
  std::uint64_t epoch_ = 0;

  /// The candidate list and its per-candidate values.
  bool has_list_ = false;
  std::vector<Vec3> pattern_refs_;  // positions at the last search
  std::vector<std::pair<std::int32_t, std::int32_t>> cand_;  // i < j
  std::vector<std::int64_t> partner_ptr_;  // per row, into partners_
  std::vector<Partner> partners_;
  std::vector<double> cand_tensor_;  // 9 per candidate
  std::vector<std::uint8_t> cand_active_;
  /// Above tolerance 0: per candidate, the positions of i and j its
  /// tensor was computed at (2 per candidate).
  std::vector<Vec3> cand_refs_;
  /// Whether cached_ holds this list's layout, and for which active set.
  bool has_layout_ = false;
  std::vector<std::uint8_t> laid_out_;
  std::vector<std::int64_t> diag_slot_;  // per row, into cached_

  /// The matrix of the last assembly, lent out by assemble(). Every
  /// assembly refills its arrays.
  sparse::BcrsMatrix cached_;
  /// Statistics of the last assembly, for the by-value paths.
  AssemblyStats last_stats_{};

  std::uint64_t rebuilds_total_ = 0;
  std::uint64_t dirty_total_ = 0;
  std::uint64_t reused_total_ = 0;
};

}  // namespace mrhs::sd
