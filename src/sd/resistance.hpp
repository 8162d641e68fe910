// Parameters and statistics of the sparse Stokesian dynamics
// resistance matrix
//   R = mu_F I + R_lub(r)
// (Torres & Gilbert sparse approximation; paper Section II-B), which
// sd::AssemblyEngine builds. One block row/column per particle;
// diagonal blocks carry the far-field drag plus the sum of pair
// projections, off-diagonal blocks the negated pair tensors, so R is
// symmetric positive definite by construction.
#pragma once

#include <cstddef>

#include "sd/lubrication.hpp"

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
  /// Candidate pairs examined: the candidate list, whose skin is
  /// 0.05 × the largest radius at tolerance 0 and 6 × tolerance above.
  std::size_t pairs_in_cutoff = 0;
  std::size_t pairs_active = 0;  // pairs contributing lubrication
  /// Incremental accounting (sd::AssemblyEngine). An exact assembly
  /// or a search recomputes everything: pairs_dirty == pairs_active
  /// and no block is reused. Otherwise an incremental call recomputes
  /// only candidates whose accumulated displacement exceeded the
  /// tolerance (pairs_dirty); every clean candidate keeps its tensor
  /// (blocks_reused += 2).
  std::size_t pairs_dirty = 0;
  std::size_t blocks_reused = 0;
  /// True when this call searched for pairs (a new candidate list);
  /// AssemblyEngine::pattern_epoch() counts them.
  bool pattern_rebuilt = false;
};

}  // namespace mrhs::sd
