// Paper Table VI: per-step timing breakdown, MRHS vs original
// algorithm, for varying problem sizes at 50% occupancy.
// ("Construct" and "Eig bounds" are printed as extra rows; the paper
// folds them into its Average.)
#include <vector>

#include "bench_common.hpp"
#include "core/sd_simulation.hpp"
#include "core/stepper.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace mrhs;
  std::string sizes = "1000,3000,8000";
  double phi = 0.5;
  int rhs = 16;
  int steps = 16;
  bench::BenchHarness harness("tab06_timings_size");
  util::ArgParser args("tab06_timings_size", "Reproduce paper Table VI");
  args.add("sizes", sizes,
           "comma-separated particle counts (paper: 3k/30k/300k)");
  args.add("phi", phi, "volume occupancy (paper: 0.5)");
  args.add("rhs", rhs, "right-hand sides per chunk (paper: 16)");
  args.add("steps", steps, "steps per measurement");
  harness.add_to(args);
  args.parse(argc, argv);
  harness.begin();

  bench::print_header(
      "Table VI — per-step timing breakdown vs problem size (phi = " +
          util::Table::fmt(phi, 2) + ", m = " + std::to_string(rhs) + ")",
      "MRHS averages 0.021/0.36/5.46 s vs original 0.023/0.49/7.70 s at "
      "3k/30k/300k particles — a 10-30% speedup");

  std::vector<std::size_t> particle_counts;
  for (std::size_t pos = 0; pos < sizes.size();) {
    const auto comma = sizes.find(',', pos);
    particle_counts.push_back(std::stoul(sizes.substr(pos, comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  std::vector<std::string> headers = {"Phase"};
  for (std::size_t n : particle_counts) {
    headers.push_back("MRHS " + std::to_string(n));
  }
  for (std::size_t n : particle_counts) {
    headers.push_back("Orig " + std::to_string(n));
  }
  std::vector<std::vector<std::string>> columns;
  std::vector<double> mrhs_avg, orig_avg, setup_seconds;
  auto config_for = [&](std::size_t n) {
    core::SdConfig config;
    config.particles = n;
    config.phi = phi;
    config.seed = 42;
    return config;
  };

  // Each size is set up (sampled, packed, dt derived) once. The
  // Original run adopts a pristine copy of that state through the
  // restore constructor, so both algorithms start from the same bits.
  struct Pristine {
    sd::ParticleSystem system;
    double dt;
    double mean_radius;
  };
  std::vector<Pristine> pristine;
  for (std::size_t n : particle_counts) {
    const util::WallTimer setup_timer;
    core::SdSimulation sim(config_for(n));
    setup_seconds.push_back(setup_timer.seconds());
    pristine.push_back({sim.system(), sim.dt(), sim.mean_radius()});
    core::MrhsAlgorithm mrhs(sim, {.rhs = static_cast<std::size_t>(rhs)});
    const auto stats = mrhs.run(static_cast<std::size_t>(steps));
    harness.add_phases(stats, "mrhs.n=" + std::to_string(n) + "/");
    columns.push_back(bench::breakdown_column(stats, /*is_mrhs=*/true));
    mrhs_avg.push_back(stats.avg_step_seconds());
  }
  for (std::size_t i = 0; i < particle_counts.size(); ++i) {
    const std::size_t n = particle_counts[i];
    core::SdSimulation sim(config_for(n), pristine[i].system, pristine[i].dt,
                           pristine[i].mean_radius);
    core::OriginalAlgorithm orig(sim);
    const auto stats = orig.run(static_cast<std::size_t>(steps));
    harness.add_phases(stats, "orig.n=" + std::to_string(n) + "/");
    columns.push_back(bench::breakdown_column(stats, /*is_mrhs=*/false));
    orig_avg.push_back(stats.avg_step_seconds());
  }

  util::Table table(headers);
  const auto& rows = bench::breakdown_rows();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::string> row = {rows[r]};
    for (const auto& col : columns) row.push_back(col[r]);
    table.add_row(std::move(row));
  }
  table.print("seconds per time step:");

  for (std::size_t i = 0; i < particle_counts.size(); ++i) {
    std::printf("%zu particles: MRHS %.3g s vs original %.3g s -> %.0f%% "
                "speedup (set-up %.3g s)\n",
                particle_counts[i], mrhs_avg[i], orig_avg[i],
                100.0 * (1.0 - mrhs_avg[i] / orig_avg[i]), setup_seconds[i]);
    const std::string n = std::to_string(particle_counts[i]);
    harness.report().set_value("setup_seconds.n=" + n, setup_seconds[i]);
    harness.report().set_value("mrhs_step_seconds.n=" + n, mrhs_avg[i]);
    harness.report().set_value("orig_step_seconds.n=" + n, orig_avg[i]);
    harness.report().set_value("speedup.n=" + n,
                               orig_avg[i] / mrhs_avg[i]);
  }
  harness.finish("Table VI — per-step timing breakdown vs problem size");
  return 0;
}
