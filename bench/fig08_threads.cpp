// Paper Figure 8: (a) GSPMV time vs number of threads and (b) MRHS
// speedup over the original algorithm vs number of threads.
//
// Sweep thread counts up to the host's core count (--threads_list):
// counts past it oversubscribe the cores and measure contention, not
// scaling. EXPERIMENTS.md records a 1-4 thread run on a 4-core host.
#include <vector>

#include "bench_common.hpp"
#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "core/workloads.hpp"
#include "perf/measure.hpp"
#include "util/parallel.hpp"

int main(int argc, char** argv) {
  using namespace mrhs;
  int particles = 3000;
  double phi = 0.5;
  int rhs = 16;
  int steps = 8;
  std::string threads_list = "1,2,4,8";
  bench::BenchHarness harness("fig08_threads");
  util::ArgParser args("fig08_threads", "Reproduce paper Fig. 8");
  args.add("particles", particles, "particles (paper: 300k; scaled)");
  args.add("phi", phi, "volume occupancy (paper: 0.5)");
  args.add("rhs", rhs, "right-hand sides (paper: 16)");
  args.add("steps", steps, "steps per measurement");
  args.add("threads_list", threads_list, "comma-separated thread counts");
  harness.add_to(args);
  args.parse(argc, argv);
  harness.begin();

  bench::print_header(
      "Figure 8 — GSPMV performance and MRHS speedup vs threads",
      "(a) GSPMV time falls with threads; (b) MRHS speedup grows with "
      "threads (B/F shrinks as threads saturate bandwidth)");
  std::printf("hardware threads available here: %d (backend: %s)\n\n",
              util::hardware_threads(), util::parallel_backend());

  std::vector<int> thread_counts;
  for (std::size_t pos = 0; pos < threads_list.size();) {
    const auto comma = threads_list.find(',', pos);
    thread_counts.push_back(std::stoi(threads_list.substr(pos, comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  // (a) GSPMV time vs threads on the mat2-like matrix of this system.
  core::MatrixSpec spec{"mat2-like", static_cast<std::size_t>(particles),
                        phi, 2.05, 42};
  const auto matrix = core::make_sd_matrix(spec);
  util::Table gspmv_table({"threads", "SPMV ms", "GSPMV(m=16) ms",
                           "r(16)"});
  for (int t : thread_counts) {
    const double t1 = perf::measure_gspmv_seconds(matrix, 1, t);
    const double t16 = perf::measure_gspmv_seconds(matrix, 16, t);
    gspmv_table.add_row({std::to_string(t),
                         util::Table::fmt(t1 * 1e3, 3),
                         util::Table::fmt(t16 * 1e3, 3),
                         util::Table::fmt_fixed(t16 / t1, 2)});
    harness.report().set_value("gspmv_m1_ms.threads=" + std::to_string(t),
                               t1 * 1e3);
    harness.report().set_value("r16.threads=" + std::to_string(t),
                               t16 / t1);
  }
  gspmv_table.print("(a) GSPMV wall time vs threads (nnzb/nb = " +
                    util::Table::fmt_fixed(matrix.blocks_per_row(), 1) +
                    "):");

  // (b) end-to-end MRHS speedup vs threads.
  util::Table speedup_table({"threads", "MRHS s/step", "Orig s/step",
                             "speedup"});
  for (int t : thread_counts) {
    core::SdConfig config;
    config.particles = static_cast<std::size_t>(particles);
    config.phi = phi;
    config.seed = 42;
    config.threads = t;
    core::SdSimulation sim_m(config), sim_o(config);
    core::MrhsAlgorithm mrhs(sim_m, {.rhs = static_cast<std::size_t>(rhs)});
    core::OriginalAlgorithm orig(sim_o);
    const auto st_m = mrhs.run(static_cast<std::size_t>(steps));
    const auto st_o = orig.run(static_cast<std::size_t>(steps));
    speedup_table.add_row(
        {std::to_string(t), util::Table::fmt(st_m.avg_step_seconds(), 3),
         util::Table::fmt(st_o.avg_step_seconds(), 3),
         util::Table::fmt_fixed(
             st_o.avg_step_seconds() / st_m.avg_step_seconds(), 2)});
    harness.report().set_value(
        "speedup.threads=" + std::to_string(t),
        st_o.avg_step_seconds() / st_m.avg_step_seconds());
  }
  speedup_table.print("\n(b) MRHS speedup over the original algorithm:");
  harness.finish("Figure 8 — GSPMV performance and MRHS speedup vs threads");
  return 0;
}
