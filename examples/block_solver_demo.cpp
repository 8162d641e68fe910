// Block solver demo: the augmented solve (multi-RHS CG) vs m separate
// CG solves on the same SPD system — the solver-level ablation behind
// the MRHS design. Both run the same per-column CG recurrences; the
// augmented solve applies the matrix to all columns at once with GSPMV,
// so it streams the matrix once per iteration instead of m times.
#include <cstdio>
#include <vector>

#include "core/workloads.hpp"
#include "solver/block_cg.hpp"
#include "solver/cg.hpp"
#include "solver/operator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mrhs;

  int particles = 3000;
  int rhs = 8;
  util::ArgParser args("block_solver_demo",
                       "Augmented solve vs separate CG solves on "
                       "multiple RHS");
  args.add("particles", particles, "particles for the demo matrix");
  args.add("rhs", rhs, "number of right-hand sides");
  args.parse(argc, argv);

  core::MatrixSpec spec{"demo", static_cast<std::size_t>(particles), 0.5,
                        2.05, 13};
  const auto matrix = core::make_sd_matrix(spec);
  solver::BcrsOperator op(matrix, 1);
  const std::size_t n = op.size();
  const auto m = static_cast<std::size_t>(rhs);
  std::printf("system: n = %zu, nnzb/nb = %.1f, m = %zu right-hand sides\n\n",
              n, matrix.blocks_per_row(), m);

  util::StreamRng rng(21);
  sparse::MultiVector b(n, m), x_block(n, m);
  b.fill_normal(rng);

  // The augmented solve: every column's CG shares one GSPMV.
  op.reset_application_count();
  util::WallTimer block_timer;
  const auto block_result = solver::block_conjugate_gradient(op, b, x_block);
  const double block_seconds = block_timer.seconds();
  const long block_applies = op.applications();
  std::printf("augmented:   %3zu iterations, %5ld matrix-vector products, "
              "%.3f s%s\n",
              block_result.iterations, block_applies, block_seconds,
              block_result.converged() ? "" : "  (NOT converged)");

  // Separate CG solves, column by column.
  op.reset_application_count();
  util::WallTimer seq_timer;
  std::vector<double> bj(n), xj(n);
  std::size_t max_iters = 0;
  bool all_converged = true;
  for (std::size_t j = 0; j < m; ++j) {
    b.copy_col_out(j, bj);
    std::fill(xj.begin(), xj.end(), 0.0);
    const auto r = solver::conjugate_gradient(op, bj, xj);
    max_iters = std::max(max_iters, r.iterations);
    all_converged = all_converged && r.converged();
  }
  const double seq_seconds = seq_timer.seconds();
  std::printf("separate CG: %3zu iterations (worst column), %5ld "
              "matrix-vector products, %.3f s%s\n",
              max_iters, op.applications(), seq_seconds,
              all_converged ? "" : "  (NOT converged)");

  std::printf("\naugmented-solve wall-time advantage: %.2fx\n",
              seq_seconds / block_seconds);
  std::printf("(the products count is about the same — the win is that the "
              "augmented\n solve streams the matrix once per iteration for "
              "all %zu columns via GSPMV)\n",
              m);
  return 0;
}
