// Long-chain molecule: bonded forces, the other f_P extension the
// paper names ("bonded forces for simulating long-chain molecules as a
// bonded chain of particles"). A polymer chain of beads connected by
// harmonic springs diffuses through a sea of crowder particles; we
// track its end-to-end distance and radius of gyration.
#include <cstdio>
#include <vector>

#include "core/sd_simulation.hpp"
#include "sd/brownian.hpp"
#include "solver/cg.hpp"
#include "solver/operator.hpp"
#include "util/cli.hpp"

namespace {

using namespace mrhs;

/// Chain metrics from the first `beads` particles (the chain).
struct ChainShape {
  double end_to_end;
  double gyration_radius;
};

ChainShape measure_chain(const core::SdSimulation& sim, std::size_t beads) {
  // Work with unwrapped bead positions relative to bead 0 so periodic
  // images don't fold the chain.
  const auto& box = sim.system().box();
  const auto pos = sim.system().positions();
  std::vector<sd::Vec3> unfolded(beads);
  unfolded[0] = pos[0];
  for (std::size_t b = 1; b < beads; ++b) {
    const sd::Vec3 d = box.min_image(pos[b], pos[b - 1]);
    unfolded[b] = unfolded[b - 1] + d;
  }
  sd::Vec3 center{};
  for (const auto& p : unfolded) center += p;
  center *= 1.0 / static_cast<double>(beads);
  double rg2 = 0.0;
  for (const auto& p : unfolded) rg2 += (p - center).norm2();
  ChainShape shape;
  shape.end_to_end = (unfolded[beads - 1] - unfolded[0]).norm();
  shape.gyration_radius = std::sqrt(rg2 / static_cast<double>(beads));
  return shape;
}

}  // namespace

int main(int argc, char** argv) {
  int particles = 400;
  int beads = 24;
  int steps = 30;
  double stiffness = 200.0;
  double bond_length = 2.2;  // rest length in mean-radius units
  util::ArgParser args("chain_molecule",
                       "A bonded bead chain among crowders");
  args.add("particles", particles, "total particles (chain + crowders)");
  args.add("beads", beads, "chain length in beads");
  args.add("steps", steps, "time steps");
  args.add("stiffness", stiffness, "harmonic bond stiffness");
  args.add("bond_length", bond_length, "bond rest length");
  args.parse(argc, argv);

  core::SdConfig config;
  config.particles = static_cast<std::size_t>(particles);
  config.phi = 0.3;
  config.seed = 77;
  core::SdSimulation sim(config);
  const std::size_t n = sim.dof();
  const auto nb = static_cast<std::size_t>(beads);
  const double dt = sim.dt();

  // Bonded force: harmonic springs between consecutive beads. The
  // first `beads` particles form the chain (any subset works — indices
  // are just labels after packing).
  auto bond_forces = [&](std::vector<double>& f) {
    const auto pos = sim.system().positions();
    const auto& box = sim.system().box();
    for (std::size_t b = 0; b + 1 < nb; ++b) {
      const sd::Vec3 d = box.min_image(pos[b + 1], pos[b]);
      const double len = d.norm();
      const double stretch = len - bond_length;
      const sd::Vec3 pull = (stiffness * stretch / len) * d;
      f[3 * b + 0] += pull.x;
      f[3 * b + 1] += pull.y;
      f[3 * b + 2] += pull.z;
      f[3 * (b + 1) + 0] -= pull.x;
      f[3 * (b + 1) + 1] -= pull.y;
      f[3 * (b + 1) + 2] -= pull.z;
    }
  };

  const auto start = measure_chain(sim, nb);
  std::printf("chain of %d beads among %d crowders (phi = %.2f)\n",
              beads, particles - beads, config.phi);
  std::printf("start: end-to-end %.2f, R_g %.2f\n\n", start.end_to_end,
              start.gyration_radius);

  std::vector<double> f(n), z(n), u(n, 0.0);
  for (int step = 0; step < steps; ++step) {
    const auto r_matrix = sim.assemble().matrix;
    mrhs::solver::BcrsOperator op(r_matrix, config.threads);
    const sd::BrownianForce brownian(op, dt);
    sim.noise(static_cast<std::uint64_t>(step), z);
    brownian.compute(op, z, f);
    bond_forces(f);

    mrhs::solver::CgOptions opts;
    opts.tol = config.solver_tol;
    const auto result = mrhs::solver::conjugate_gradient(op, f, u, opts);
    if (!result.converged()) {
      std::fprintf(stderr, "error: CG did not converge at step %d: %s\n",
                   step, mrhs::solver::to_string(result.status));
      return 1;
    }
    sim.system().advance(u, dt, sim.max_step_length());

    if ((step + 1) % 10 == 0) {
      const auto shape = measure_chain(sim, nb);
      std::printf("step %3d: end-to-end %.2f, R_g %.2f\n", step + 1,
                  shape.end_to_end, shape.gyration_radius);
    }
  }

  const auto final_shape = measure_chain(sim, nb);
  std::printf("\nfinal: end-to-end %.2f, R_g %.2f\n", final_shape.end_to_end,
              final_shape.gyration_radius);
  std::printf("(bonded forces keep the chain connected while it diffuses "
              "through the crowders;\n raise --stiffness or --steps to watch "
              "it relax toward the bond rest length)\n");
  return 0;
}
