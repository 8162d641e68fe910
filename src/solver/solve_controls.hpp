// Shared controls and status vocabulary for every iterative solver.
//
// All solver option structs (CgOptions, BlockCgOptions, ChebyshevOptions)
// embed SolveControls so tolerance and iteration budget are spelled the
// same way everywhere, and every result struct carries a SolveStatus
// instead of ad-hoc bools.
#pragma once

#include <cstddef>

namespace mrhs::solver {

/// Outcome of an iterative solve.
///
///   kConverged — met the tolerance on the normal path.
///   kMaxIters  — ran out of the iteration budget (stagnation).
///   kBreakdown — numerical breakdown (p^T A p <= 0, non-finite
///                values).
///   kRecovered — met the tolerance, but only through a fallback (a run
///                whose augmented solve failed, so its steps solved
///                from zero guesses).
enum class SolveStatus { kConverged, kMaxIters, kBreakdown, kRecovered };

/// True when the solve produced a usable solution (converged either
/// directly or through a recovery path).
[[nodiscard]] constexpr bool solve_succeeded(SolveStatus s) {
  return s == SolveStatus::kConverged || s == SolveStatus::kRecovered;
}

[[nodiscard]] constexpr const char* to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kConverged: return "converged";
    case SolveStatus::kMaxIters: return "max_iters";
    case SolveStatus::kBreakdown: return "breakdown";
    case SolveStatus::kRecovered: return "recovered";
  }
  return "unknown";
}

/// Severity order for aggregating statuses across many solves:
/// converged < recovered < max_iters < breakdown.
[[nodiscard]] constexpr int severity(SolveStatus s) {
  switch (s) {
    case SolveStatus::kConverged: return 0;
    case SolveStatus::kRecovered: return 1;
    case SolveStatus::kMaxIters: return 2;
    case SolveStatus::kBreakdown: return 3;
  }
  return 3;
}

/// The more severe of two statuses (for run-level aggregation).
[[nodiscard]] constexpr SolveStatus worse_status(SolveStatus a,
                                                SolveStatus b) {
  return severity(a) >= severity(b) ? a : b;
}

/// The knobs every Krylov/polynomial solver shares.
struct SolveControls {
  /// Relative residual target (the paper's stopping threshold).
  double tol = 1e-6;
  /// Iteration budget; for polynomial methods, the order cap.
  std::size_t max_iters = 1000;
};

}  // namespace mrhs::solver
