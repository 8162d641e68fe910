// Multi-right-hand-side conjugate gradients for SPD systems:
// A X = B with X, B n-by-m.
//
// This is the solver the paper pairs with GSPMV: one iteration costs a
// single GSPMV with m vectors, so the matrix is streamed from memory
// once per iteration regardless of m. The columns share nothing else.
// Each runs its own CG recurrence (own alpha, beta and residual norm),
// the multi-RHS design Krasnopolsky studies (arXiv:1907.12874). So no
// m-by-m algebra is needed, and a breakdown or a NaN stays in its own
// column.
//
// The vector work past the GSPMV runs as three passes per iteration
// (the p^T q dots; the R update with its norms; the X and P updates).
// Each walks the rows in fixed blocks with the m columns as SIMD
// lanes, on the operator's threads once n * m reaches
// sparse::kThreadedPassMinEntries (serially, over the same blocks,
// below it).
//
// Column contract: column j's iterate, iteration count and status
// depend only on A, b_j, the initial x_j, tol and max_iters. They are
// bitwise the same at any width m >= 2, beside any neighbours and at
// any operator thread count, because GSPMV columns are and every
// per-column reduction takes the blocked order of
// sparse::reduce_columns: each block's rows in row order, then the
// block partials in block order. Width 1 takes GSPMV's m = 1 SpMV
// path, which rounds differently.
#pragma once

#include <cstddef>
#include <vector>

#include "solver/operator.hpp"
#include "solver/solve_controls.hpp"
#include "sparse/multivector.hpp"

namespace mrhs::solver {

/// Options: the shared controls (tol is the per-column relative
/// residual target).
struct BlockCgOptions : SolveControls {};

struct BlockCgResult {
  /// GSPMV sweeps, i.e. the iterations of the slowest column.
  std::size_t iterations = 0;
  /// The worst column's status:
  /// kConverged: every column met tol.
  /// kMaxIters:  some column ran out of budget.
  /// kBreakdown: some column met p^T A p <= 0 or a non-finite residual;
  ///             it stopped and kept its last finite iterate while the
  ///             other columns went on.
  SolveStatus status = SolveStatus::kMaxIters;
  /// Per column, ||b_j - A x_j|| / ||b_j|| of the returned iterate, by
  /// the recurrence.
  std::vector<double> relative_residuals;

  [[nodiscard]] bool converged() const { return solve_succeeded(status); }
};

/// Solve A X = B; X carries initial guesses in, solutions out.
/// Breakdown is reported through `status`, never thrown.
[[nodiscard]] BlockCgResult block_conjugate_gradient(
    const LinearOperator& a, const sparse::MultiVector& b,
    sparse::MultiVector& x, const BlockCgOptions& opts = {});

}  // namespace mrhs::solver
