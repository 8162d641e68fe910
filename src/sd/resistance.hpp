// Assembly of the sparse Stokesian dynamics resistance matrix
//   R = mu_F I + R_lub(r)
// (Torres & Gilbert sparse approximation; paper Section II-B).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sd/cell_list.hpp"
#include "sd/lubrication.hpp"
#include "sd/particle_system.hpp"
#include "sparse/bcrs.hpp"

namespace mrhs::sd {

struct ResistanceParams {
  LubricationParams lubrication;
  double viscosity = 1.0;  // solvent viscosity for the far-field drag
  /// If >= 0, overrides the measured volume fraction used for the
  /// effective-viscosity far-field term (tests).
  double phi_override = -1.0;
  /// When false the diagonal far-field drag mu_F I is omitted and the
  /// assembly yields R_lub alone (used by the exact dense path, which
  /// replaces mu_F I with the true (M_inf)^{-1}).
  bool include_far_field = true;
};

/// Statistics of one assembly, reported by Table I and the assembly.*
/// observability counters.
struct AssemblyStats {
  /// Candidate pairs examined: neighbor pairs under the cell cutoff
  /// for a full assembly, pattern pairs for an incremental one.
  std::size_t pairs_in_cutoff = 0;
  std::size_t pairs_active = 0;      // pairs contributing lubrication
  double min_scaled_gap = 0.0;       // smallest xi encountered (clamped)
  /// Incremental accounting (sd::AssemblyEngine). A full rebuild
  /// recomputes everything: pairs_dirty == pairs_active and no block
  /// is reused. An incremental call recomputes only pairs whose
  /// accumulated displacement exceeded the tolerance; every clean pair
  /// keeps its two stored off-diagonal blocks (blocks_reused += 2).
  std::size_t pairs_dirty = 0;
  std::size_t blocks_reused = 0;
  /// True when this call (re)built the sparsity pattern; the epoch
  /// counts pattern builds over the engine's lifetime.
  bool pattern_rebuilt = false;
  std::uint64_t pattern_epoch = 0;
};

/// Full-rebuild assembler, the tolerance = 0 reference: builds R from
/// scratch at the system's current configuration. One block row/column
/// per particle; diagonal blocks carry the far-field drag plus the sum
/// of pair projections, off-diagonal blocks the negated pair tensors.
/// The result is symmetric positive definite by construction.
///
/// The pair records, degree counters, and cursors persist across
/// calls (SD assembles twice per time step). This class is an
/// implementation detail of sd::AssemblyEngine — the engine is the
/// only assembly entry point outside src/sd (lint-enforced).
class ResistanceAssembler {
 public:
  explicit ResistanceAssembler(ResistanceParams params) : params_(params) {}

  [[nodiscard]] const ResistanceParams& params() const { return params_; }

  /// Assemble into `out`, refilling (and keeping the capacity of) the
  /// arrays it already holds.
  void assemble_full(const ParticleSystem& system, sparse::BcrsMatrix& out,
                     AssemblyStats* stats = nullptr);

 private:
  struct PairRecord {
    std::int32_t i;
    std::int32_t j;
    double tensor[9];
  };

  ResistanceParams params_;
  std::vector<PairRecord> pairs_;
  std::vector<std::int64_t> cursor_;
  std::vector<std::int32_t> scratch_cols_;
  std::vector<std::int32_t> scratch_order_;
  std::vector<double> scratch_vals_;
};

}  // namespace mrhs::sd
