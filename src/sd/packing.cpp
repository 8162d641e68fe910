#include "sd/packing.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"
#include "sd/cell_list.hpp"
#include "sd/radii.hpp"
#include "util/rng.hpp"

namespace mrhs::sd {

namespace {

using Candidate = std::array<std::int32_t, 2>;

/// One Gauss–Seidel relaxation pass: in the grid walk's order, push
/// every overlapping candidate pair apart along the line of centers.
/// Returns the worst overlap depth seen. The test and the push are
/// CellList::for_each_overlapping_pair's and the push's expressions
/// term for term; a rewrite would change what the compiler contracts
/// into FMAs, and so every packing's bits.
double relax_sweep(ParticleSystem& system,
                   std::span<const Candidate> candidates,
                   double push_fraction) {
  auto pos = system.positions();
  const auto radii = system.radii();
  const auto& box = system.box();
  double worst = 0.0;
  for (const auto& [i, j] : candidates) {
    const Vec3 d = box.min_image(pos[i], pos[j]);
    const double dist2 = d.norm2();
    const double touch = radii[i] + radii[j];
    if (dist2 >= touch * touch || dist2 == 0.0) continue;
    const double distance = std::sqrt(dist2);
    // unit points from j to i: separate them symmetrically.
    const Vec3 unit = (1.0 / distance) * d;
    const double gap = distance - touch;
    const double depth = -gap;
    worst = std::max(worst, depth);
    const double shift = 0.5 * push_fraction * depth;
    pos[i] = box.wrap(pos[i] + shift * unit);
    pos[j] = box.wrap(pos[j] - shift * unit);
  }
  return worst;
}

}  // namespace

ParticleSystem pack_particles(std::vector<double> radii, double phi,
                              const PackingParams& params,
                              PackingReport* report) {
  if (radii.empty()) throw std::invalid_argument("pack_particles: no radii");
  OBS_SPAN_VAR(span, "sd.pack_particles");
  const double box_len = box_length_for_occupancy(radii, phi);
  const PeriodicBox box(box_len);

  util::StreamRng rng(params.seed, /*stream=*/0x9ac4);
  std::vector<Vec3> positions(radii.size());
  for (auto& p : positions) {
    p = {rng.uniform(0.0, box_len), rng.uniform(0.0, box_len),
         rng.uniform(0.0, box_len)};
  }

  double mean_radius = 0.0;
  for (double r : radii) mean_radius += r;
  mean_radius /= static_cast<double>(radii.size());
  const double tol_abs = params.tolerance * mean_radius;

  PackingReport local{};
  double scale = std::min(params.initial_scale, 1.0);
  bool final_stage = false;
  std::vector<Candidate> candidates;  // storage reused across refreshes
  // Growth stages: relax at the current scale, then grow radii.
  for (int stage = 0; stage < 500; ++stage) {
    local.stages = stage + 1;
    std::vector<double> scaled(radii.size());
    for (std::size_t i = 0; i < radii.size(); ++i) scaled[i] = scale * radii[i];
    ParticleSystem staged(positions, scaled, box);
    const double cutoff = 2.0 * staged.max_radius() * 1.05;

    double worst = 0.0;
    for (int sweep = 0; sweep < params.sweeps_per_stage; ++sweep) {
      if (sweep % 8 == 0) {
        // Refresh the stale grid and record the pairs its overlap walk
        // tests. Until the next refresh the grid, its cell lists and
        // its per-cell radii stay fixed, so each sweep would walk
        // exactly this sequence; positions move by at most the
        // overlap depth per sweep, which the cutoff slack absorbs.
        const CellList cells(staged, cutoff);
        candidates.clear();
        cells.for_each_overlap_candidate([&](std::size_t i, std::size_t j) {
          candidates.push_back({static_cast<std::int32_t>(i),
                                static_cast<std::int32_t>(j)});
        });
      }
      ++local.total_sweeps;
      worst = relax_sweep(staged, candidates, params.push_fraction);
      if (worst <= tol_abs) break;
    }
    positions.assign(staged.positions().begin(), staged.positions().end());
    local.worst_overlap = worst;

    if (final_stage) {
      if (worst <= tol_abs) {
        local.success = true;
        break;
      }
      // Keep relaxing at full size on subsequent stages.
      continue;
    }
    scale = std::min(scale * params.growth, 1.0);
    if (scale >= 1.0) final_stage = true;
  }

  span.arg("particles", static_cast<double>(radii.size()));
  span.arg("stages", static_cast<double>(local.stages));
  span.arg("sweeps", static_cast<double>(local.total_sweeps));
  if (report != nullptr) *report = local;
  if (!local.success) {
    throw std::runtime_error(
        "pack_particles: failed to reach target occupancy without overlap");
  }
  ParticleSystem packed(std::move(positions), std::move(radii), box);
  spatial_sort(packed);  // cache-friendly index order for assembly
  return packed;
}

namespace {

/// Spread the low 10 bits of v so consecutive bits land 3 apart.
std::uint64_t spread_bits_3(std::uint64_t v) {
  v &= 0x3ff;
  v = (v | (v << 16)) & 0x030000ff;
  v = (v | (v << 8)) & 0x0300f00f;
  v = (v | (v << 4)) & 0x030c30c3;
  v = (v | (v << 2)) & 0x09249249;
  return v;
}

std::uint64_t morton_key(const Vec3& p, const PeriodicBox& box) {
  const double inv = 1024.0 / box.length();
  const auto qx = static_cast<std::uint64_t>(box.wrap1(p.x) * inv);
  const auto qy = static_cast<std::uint64_t>(box.wrap1(p.y) * inv);
  const auto qz = static_cast<std::uint64_t>(box.wrap1(p.z) * inv);
  return spread_bits_3(qx) | (spread_bits_3(qy) << 1) |
         (spread_bits_3(qz) << 2);
}

}  // namespace

std::vector<std::size_t> spatial_sort(ParticleSystem& system) {
  const std::size_t n = system.size();
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  const auto pos = system.positions();
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = morton_key(pos[i], system.box());
  std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
    return keys[a] != keys[b] ? keys[a] < keys[b] : a < b;
  });

  std::vector<Vec3> new_pos(n);
  std::vector<double> new_radii(n);
  const auto radii = system.radii();
  for (std::size_t i = 0; i < n; ++i) {
    new_pos[i] = pos[perm[i]];
    new_radii[i] = radii[perm[i]];
  }
  system = ParticleSystem(std::move(new_pos), std::move(new_radii),
                          system.box());
  return perm;
}

double equilibrium_pad(double phi) {
  if (phi <= 0.0 || phi >= 1.0) {
    throw std::invalid_argument("equilibrium_pad: phi out of range");
  }
  // Calibrated so that with the default 0.1 lubrication cutoff the
  // dilute regime (phi ~ 0.1) is hydrodynamically decoupled, phi ~ 0.3
  // straddles the cutoff, and phi ~ 0.5 sits deep in the lubrication
  // regime — the paper's Table V conditioning ladder.
  constexpr double kPhiRcp = 0.58;
  const double x = std::cbrt(kPhiRcp / phi) - 1.0;
  const double pad = 0.38 * std::pow(x, 1.85);
  return std::clamp(pad, 0.0015, 0.25);
}

ParticleSystem pack_equilibrated(std::vector<double> radii, double phi,
                                 const PackingParams& params, double pad) {
  if (pad < 0.0) pad = equilibrium_pad(phi);
  const double scale = 1.0 + pad;
  std::vector<double> padded(radii.size());
  for (std::size_t i = 0; i < radii.size(); ++i) padded[i] = scale * radii[i];
  // Pack the padded spheres in the box sized for the *true* occupancy,
  // i.e. at padded occupancy phi * scale^3 (capped below jamming).
  const double padded_phi = std::min(phi * scale * scale * scale, 0.58);
  ParticleSystem padded_system = pack_particles(std::move(padded), padded_phi,
                                                params);
  std::vector<Vec3> positions(padded_system.positions().begin(),
                              padded_system.positions().end());
  // pack_particles spatially reorders its particles; recover the true
  // radii in that same order by unscaling the packed (padded) radii.
  std::vector<double> sorted_radii(padded_system.radii().size());
  for (std::size_t i = 0; i < sorted_radii.size(); ++i) {
    sorted_radii[i] = padded_system.radii()[i] / scale;
  }
  // When the cap bit, the padded box is larger than the true-phi box;
  // reuse the padded box and accept the slightly lower occupancy.
  return ParticleSystem(std::move(positions), std::move(sorted_radii),
                        padded_system.box());
}

}  // namespace mrhs::sd
