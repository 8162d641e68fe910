// GSPMV tour: the sparse-kernel layer on its own. Builds an SD
// resistance matrix, then walks through SPMV, GSPMV with increasing
// vector counts, kernel variants, and the performance model — the
// paper's Section IV in API form.
#include <cstdio>
#include <vector>

#include "core/workloads.hpp"
#include "perf/machine.hpp"
#include "perf/measure.hpp"
#include "perf/model.hpp"
#include "sparse/gspmv.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mrhs;

  int particles = 5000;
  util::ArgParser args("gspmv_tour", "Tour of the GSPMV kernel layer");
  args.add("particles", particles, "particles for the demo matrix");
  args.parse(argc, argv);

  // An SD matrix in the paper's mat2 regime.
  core::MatrixSpec spec{"demo", static_cast<std::size_t>(particles), 0.5,
                        2.05, 99};
  const auto matrix = core::make_sd_matrix(spec);
  std::printf("matrix: %zu x %zu, %zu blocks, nnzb/nb = %.1f\n\n",
              matrix.rows(), matrix.cols(), matrix.nnzb(),
              matrix.blocks_per_row());

  // Single-vector SPMV baseline.
  const auto throughput = perf::measure_spmv_throughput(matrix);
  std::printf("SPMV (m = 1): %.3f ms, %.1f GB/s, %.2f Gflop/s\n",
              throughput.seconds * 1e3, throughput.gbytes_per_sec,
              throughput.gflops);

  // GSPMV relative time: the paper's central observation.
  const std::size_t ms[] = {1, 2, 4, 8, 12, 16, 24, 32};
  const auto curve = perf::measure_relative_time(matrix, ms);
  std::printf("\nGSPMV relative time r(m):\n");
  for (const auto& pt : curve) {
    std::printf("  m = %2zu: %.2f ms  (r = %.2f,  %.2f ms per vector)\n",
                pt.m, pt.seconds * 1e3, pt.relative,
                pt.seconds * 1e3 / static_cast<double>(pt.m));
  }

  // Kernel variants on the same multiply.
  {
    util::StreamRng rng(5);
    sparse::MultiVector x(matrix.cols(), 16), y(matrix.rows(), 16);
    x.fill_normal(rng);
    const sparse::GspmvEngine engine(matrix, 1);
    const double t_simd = util::time_per_call(
        [&] { engine.apply(x, y, sparse::GspmvKernel::kAuto); });
    const double t_ref = util::time_per_call(
        [&] { engine.apply(x, y, sparse::GspmvKernel::kReference); });
    std::printf("\nkernels at m = 16: SIMD %.2f ms vs reference %.2f ms "
                "(%.1fx)\n",
                t_simd * 1e3, t_ref * 1e3, t_ref / t_simd);
  }

  // The roofline model (eq. 8) with this machine's measured B and F.
  const auto machine = perf::measure_machine();
  perf::GspmvModel model;
  model.block_rows = static_cast<double>(matrix.block_rows());
  model.nonzero_blocks = static_cast<double>(matrix.nnzb());
  model.bandwidth = machine.bandwidth;
  model.flops = machine.flops;
  std::printf("\nmodel (B = %.1f GB/s, F = %.1f Gflop/s):\n",
              machine.bandwidth * 1e-9, machine.flops * 1e-9);
  std::printf("  vectors within 2x of one SPMV: %zu\n",
              model.vectors_within_ratio(2.0));
  std::printf("  bandwidth->compute crossover m_s: %zu\n",
              model.crossover_m());
  return 0;
}
