// The cell grid's walk order is a contract: the packer relaxes overlaps
// in Gauss–Seidel order, so its bits follow the order in which the walk
// hands out pairs. These tests pin that order against an oracle copied
// from the walk as it was first written (its grid rule, its half
// stencil and its modulo cell_index), and pin the packer's output
// against a loop that re-walks the grid on every sweep. No golden
// numbers: every comparison runs both sides in the same build, so
// builds that contract different expressions into FMAs all pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sd/cell_list.hpp"
#include "sd/packing.hpp"
#include "sd/particle_system.hpp"
#include "sd/radii.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;
using sd::Vec3;
using IndexPair = std::pair<std::size_t, std::size_t>;

/// The reference walk: the grid constructor, half stencil and modulo
/// cell_index of the original CellList, kept verbatim apart from names.
class OracleGrid {
 public:
  OracleGrid(const sd::ParticleSystem& system, double cutoff)
      : system_(&system), cutoff_(cutoff) {
    const double box_len = system.box().length();
    for (int radius : {4, 3, 2, 1}) {
      const double target = cutoff / static_cast<double>(radius);
      const auto cells =
          static_cast<std::size_t>(std::floor(box_len / target));
      if (cells >= static_cast<std::size_t>(2 * radius + 1)) {
        cells_ = cells;
        radius_ = radius;
        break;
      }
      cells_ = 1;
    }
    cell_size_ = box_len / static_cast<double>(cells_);
    if (cells_ > 1) {
      for (int dx = 0; dx <= radius_; ++dx) {
        for (int dy = (dx == 0 ? 0 : -radius_); dy <= radius_; ++dy) {
          for (int dz = ((dx == 0 && dy == 0) ? 1 : -radius_); dz <= radius_;
               ++dz) {
            auto axis_gap = [&](int d) {
              return std::max(0, std::abs(d) - 1) * cell_size_;
            };
            const double gx = axis_gap(dx);
            const double gy = axis_gap(dy);
            const double gz = axis_gap(dz);
            const double gap2 = gx * gx + gy * gy + gz * gz;
            if (gap2 >= cutoff * cutoff) continue;
            half_stencil_.push_back({dx, dy, dz});
            stencil_gap2_.push_back(gap2);
          }
        }
      }
    }
    const std::size_t n = system.size();
    head_.assign(cells_ * cells_ * cells_, -1);
    next_.assign(n, -1);
    cell_max_radius_.assign(cells_ * cells_ * cells_, 0.0);
    const auto pos = system.positions();
    const auto radii = system.radii();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = cell_of(pos[i]);
      next_[i] = head_[c];
      head_[c] = static_cast<std::int32_t>(i);
      cell_max_radius_[c] = std::max(cell_max_radius_[c], radii[i]);
    }
  }

  [[nodiscard]] std::size_t cells_per_side() const { return cells_; }
  [[nodiscard]] int stencil_radius() const { return radius_; }

  /// Candidate pairs in walk order, before any distance test.
  [[nodiscard]] std::vector<IndexPair> walk(double reach_factor,
                                            double extra_reach) const {
    std::vector<IndexPair> out;
    auto fn = [&](std::size_t i, std::size_t j) { out.emplace_back(i, j); };
    const std::size_t n = system_->size();
    if (cells_ == 1) {
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) fn(i, j);
      }
      return out;
    }
    const auto c = static_cast<std::ptrdiff_t>(cells_);
    for (std::ptrdiff_t ix = 0; ix < c; ++ix) {
      for (std::ptrdiff_t iy = 0; iy < c; ++iy) {
        for (std::ptrdiff_t iz = 0; iz < c; ++iz) {
          const std::size_t home = cell_index(ix, iy, iz);
          if (head_[home] < 0) continue;
          for (std::int32_t a = head_[home]; a >= 0; a = next_[a]) {
            for (std::int32_t b = next_[a]; b >= 0; b = next_[b]) {
              fn(std::min<std::size_t>(a, b), std::max<std::size_t>(a, b));
            }
          }
          for (std::size_t o = 0; o < half_stencil_.size(); ++o) {
            const auto& off = half_stencil_[o];
            const std::size_t other =
                cell_index(ix + off[0], iy + off[1], iz + off[2]);
            if (head_[other] < 0) continue;
            double limit = cutoff_;
            if (reach_factor > 0.0) {
              limit = std::min(
                  limit, (cell_max_radius_[home] + cell_max_radius_[other]) *
                                 reach_factor +
                             extra_reach);
            }
            if (stencil_gap2_[o] >= limit * limit) continue;
            for (std::int32_t b = head_[other]; b >= 0; b = next_[b]) {
              for (std::int32_t a = head_[home]; a >= 0; a = next_[a]) {
                fn(std::min<std::size_t>(a, b), std::max<std::size_t>(a, b));
              }
            }
          }
        }
      }
    }
    return out;
  }

 private:
  [[nodiscard]] std::size_t cell_of(const Vec3& p) const {
    auto idx = [&](double v) {
      auto k = static_cast<std::size_t>(system_->box().wrap1(v) / cell_size_);
      return std::min(k, cells_ - 1);
    };
    return (idx(p.x) * cells_ + idx(p.y)) * cells_ + idx(p.z);
  }

  [[nodiscard]] std::size_t cell_index(std::ptrdiff_t ix, std::ptrdiff_t iy,
                                       std::ptrdiff_t iz) const {
    const auto c = static_cast<std::ptrdiff_t>(cells_);
    ix = (ix % c + c) % c;
    iy = (iy % c + c) % c;
    iz = (iz % c + c) % c;
    return static_cast<std::size_t>((ix * c + iy) * c + iz);
  }

  const sd::ParticleSystem* system_;
  double cutoff_;
  std::size_t cells_ = 1;
  double cell_size_ = 0.0;
  int radius_ = 1;
  std::vector<std::array<int, 3>> half_stencil_;
  std::vector<double> stencil_gap2_;
  std::vector<std::int32_t> head_;
  std::vector<std::int32_t> next_;
  std::vector<double> cell_max_radius_;
};

sd::ParticleSystem random_system(std::size_t n, double box_len,
                                 std::uint64_t seed) {
  util::StreamRng rng(seed);
  std::vector<Vec3> pos(n);
  std::vector<double> radii(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = {rng.uniform(0, box_len), rng.uniform(0, box_len),
              rng.uniform(0, box_len)};
    radii[i] = rng.uniform(0.5, 1.5);
  }
  return {std::move(pos), std::move(radii), sd::PeriodicBox(box_len)};
}

/// Keep the oracle's candidates that pass `keep(d2, touch)`, as the
/// CellList walks filter them.
template <class Keep>
std::vector<IndexPair> filtered(const sd::ParticleSystem& system,
                                const std::vector<IndexPair>& candidates,
                                Keep keep) {
  std::vector<IndexPair> out;
  const auto pos = system.positions();
  const auto radii = system.radii();
  for (const auto& [i, j] : candidates) {
    const double d2 = system.box().min_image(pos[i], pos[j]).norm2();
    if (d2 != 0.0 && keep(d2, radii[i] + radii[j])) out.emplace_back(i, j);
  }
  return out;
}

template <class Case>
std::string case_name(const ::testing::TestParamInfo<Case>& param) {
  return param.param.name;
}

struct WalkCase {
  const char* name;
  std::size_t particles;
  double box;
  double cutoff;
  std::size_t cells;  // the grid this case must land on
};

void PrintTo(const WalkCase& c, std::ostream* os) { *os << c.name; }

class WalkOrderTest : public ::testing::TestWithParam<WalkCase> {};

TEST_P(WalkOrderTest, EveryWalkHandsOutTheOraclesSequence) {
  const WalkCase& c = GetParam();
  const auto system = random_system(c.particles, c.box, 31);
  const sd::CellList cells(system, c.cutoff);
  const OracleGrid oracle(system, c.cutoff);
  ASSERT_EQ(cells.cells_per_side(), c.cells);
  ASSERT_EQ(oracle.cells_per_side(), c.cells);
  EXPECT_EQ(cells.stencil_radius(), oracle.stencil_radius());

  // The packer's record: every candidate the overlap walk tests.
  std::vector<IndexPair> candidates;
  cells.for_each_overlap_candidate(
      [&](std::size_t i, std::size_t j) { candidates.emplace_back(i, j); });
  const auto expected_candidates = oracle.walk(1.0, 0.0);
  EXPECT_EQ(candidates, expected_candidates);

  std::vector<IndexPair> overlapping;
  cells.for_each_overlapping_pair(
      [&](const sd::Pair& p) { overlapping.emplace_back(p.i, p.j); });
  const auto expected_overlapping = filtered(
      system, expected_candidates,
      [](double d2, double touch) { return d2 < touch * touch; });
  EXPECT_EQ(overlapping, expected_overlapping);
  EXPECT_FALSE(overlapping.empty());

  std::vector<IndexPair> within_cutoff;
  cells.for_each_pair(
      [&](const sd::Pair& p) { within_cutoff.emplace_back(p.i, p.j); });
  const double cutoff2 = c.cutoff * c.cutoff;
  EXPECT_EQ(within_cutoff,
            filtered(system, oracle.walk(-1.0, 0.0),
                     [&](double d2, double) { return d2 < cutoff2; }));

  // The assembly search's criterion: reach factor 1 + 0.05, widened
  // by an absolute skin.
  const double max_gap_scaled = 0.1;
  const double skin = 0.2;
  const double reach_factor = 1.0 + 0.5 * max_gap_scaled;
  std::vector<IndexPair> interacting;
  cells.for_each_interacting_pair(max_gap_scaled, skin, [&](const sd::Pair& p) {
    interacting.emplace_back(p.i, p.j);
  });
  EXPECT_EQ(interacting,
            filtered(system, oracle.walk(reach_factor, skin),
                     [&](double d2, double touch) {
                       const double reach = touch * reach_factor + skin;
                       return d2 < reach * reach;
                     }));
}

// Box / cutoff: 2.38 lands on 2R + 1 = 9 cells at R = 4, where every
// stencil offset of +-4 wraps on every axis; 8.0 on a 32-cell grid;
// 2.17 is below the grid rule's minimum of 2.25 and falls back to one
// cell. The rule's coarser stencils (R = 3, 2, 1) need box/cutoff of at
// least 2.33, 2.5 and 3, so R = 4 always wins first and they never run.
INSTANTIATE_TEST_SUITE_P(
    Grids, WalkOrderTest,
    ::testing::Values(WalkCase{"nine_cells", 160, 10.0, 4.2, 9},
                      WalkCase{"large_grid", 900, 24.0, 3.0, 32},
                      WalkCase{"one_cell", 80, 10.0, 4.6, 1}),
    case_name<WalkCase>);

TEST(CellWalk, GridRuleMatchesTheOracleAcrossBoxToCutoffRatios) {
  const auto system = random_system(20, 10.0, 32);
  for (double ratio = 1.0; ratio <= 12.0; ratio += 0.03125) {
    const double cutoff = 10.0 / ratio;
    const sd::CellList cells(system, cutoff);
    const OracleGrid oracle(system, cutoff);
    EXPECT_EQ(cells.cells_per_side(), oracle.cells_per_side())
        << "ratio " << ratio;
    if (cells.cells_per_side() > 1) {
      EXPECT_EQ(cells.stencil_radius(), oracle.stencil_radius());
      EXPECT_EQ(cells.stencil_radius(), 4) << "ratio " << ratio;
    }
  }
}

TEST(CellWalk, HugeBoxHoldsTheCapAndFindsEveryPair) {
  // The grid rule alone would ask for 4e12 / 1e9 = 4,000 cells per side
  // (6.4e10 cells). Capped cells are larger than the cutoff needs, and
  // the same stencil still covers it.
  constexpr double kBox = 1e12;
  constexpr double kCutoff = 1e9;
  util::StreamRng rng(33);
  std::vector<Vec3> pos;
  std::vector<double> radii;
  for (int i = 0; i < 300; ++i) {
    // Clusters at the origin corner, so pairs also form across the
    // periodic boundary, and in the middle of the box.
    const double centre = i % 2 == 0 ? 0.0 : 0.5 * kBox;
    pos.push_back(sd::PeriodicBox(kBox).wrap(
        {centre + rng.uniform(-4e9, 4e9), centre + rng.uniform(-4e9, 4e9),
         centre + rng.uniform(-4e9, 4e9)}));
    radii.push_back(rng.uniform(1e8, 4e8));
  }
  const sd::ParticleSystem system(pos, radii, sd::PeriodicBox(kBox));
  const sd::CellList cells(system, kCutoff);
  EXPECT_EQ(cells.cells_per_side(), sd::CellList::kMaxCellsPerSide);

  std::set<IndexPair> got;
  cells.for_each_pair([&](const sd::Pair& p) {
    EXPECT_TRUE(got.insert({p.i, p.j}).second) << "pair found twice";
  });
  std::set<IndexPair> expected;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    for (std::size_t j = i + 1; j < pos.size(); ++j) {
      if (system.box().min_image(pos[i], pos[j]).norm2() <
          kCutoff * kCutoff) {
        expected.insert({i, j});
      }
    }
  }
  EXPECT_EQ(got, expected);
  EXPECT_GT(expected.size(), 50u);
}

// --- packer ----------------------------------------------------------

/// The packer as first written: the same schedule, with a CellList
/// refreshed every 8 sweeps and each sweep relaxing through
/// for_each_overlapping_pair. Records each refresh's cells per side.
sd::ParticleSystem walk_per_sweep_pack(std::vector<double> radii, double phi,
                                       const sd::PackingParams& params,
                                       sd::PackingReport* report,
                                       std::vector<std::size_t>* grids) {
  const double box_len = sd::box_length_for_occupancy(radii, phi);
  const sd::PeriodicBox box(box_len);

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

  auto relax_sweep = [&](sd::ParticleSystem& system,
                         const sd::CellList& cells) {
    auto pos = system.positions();
    double worst = 0.0;
    cells.for_each_overlapping_pair([&](const sd::Pair& p) {
      const double depth = -p.gap;
      worst = std::max(worst, depth);
      const double shift = 0.5 * params.push_fraction * depth;
      pos[p.i] = system.box().wrap(pos[p.i] + shift * p.unit);
      pos[p.j] = system.box().wrap(pos[p.j] - shift * p.unit);
    });
    return worst;
  };

  sd::PackingReport local{};
  double scale = std::min(params.initial_scale, 1.0);
  bool final_stage = false;
  for (int stage = 0; stage < 500; ++stage) {
    local.stages = stage + 1;
    std::vector<double> scaled(radii.size());
    for (std::size_t i = 0; i < radii.size(); ++i) scaled[i] = scale * radii[i];
    sd::ParticleSystem staged(positions, scaled, box);
    const double cutoff = 2.0 * staged.max_radius() * 1.05;

    double worst = 0.0;
    std::optional<sd::CellList> cells;
    for (int sweep = 0; sweep < params.sweeps_per_stage; ++sweep) {
      if (sweep % 8 == 0) {
        cells.emplace(staged, cutoff);
        grids->push_back(cells->cells_per_side());
      }
      ++local.total_sweeps;
      worst = relax_sweep(staged, *cells);
      if (worst <= tol_abs) break;
    }
    positions.assign(staged.positions().begin(), staged.positions().end());
    local.worst_overlap = worst;

    if (final_stage) {
      if (worst <= tol_abs) {
        local.success = true;
        break;
      }
      continue;
    }
    scale = std::min(scale * params.growth, 1.0);
    if (scale >= 1.0) final_stage = true;
  }
  *report = local;
  sd::ParticleSystem packed(std::move(positions), std::move(radii), box);
  sd::spatial_sort(packed);
  return packed;
}

struct PackCase {
  const char* name;
  std::size_t particles;
  double phi;
  std::uint64_t seed;
  bool nine_cell_grid;  // some refresh lands on 2R + 1 = 9 cells
};

void PrintTo(const PackCase& c, std::ostream* os) { *os << c.name; }

class PackerBitsTest : public ::testing::TestWithParam<PackCase> {};

TEST_P(PackerBitsTest, EqualsTheWalkPerSweepLoopBitwise) {
  const PackCase& c = GetParam();
  // pack_equilibrated's input: E. coli radii padded by the equilibrium
  // pad, packed at the padded occupancy.
  auto radii = sd::sample_radii(sd::ecoli_cytoplasm_distribution(),
                                c.particles, c.seed);
  const double scale = 1.0 + sd::equilibrium_pad(c.phi);
  for (double& r : radii) r *= scale;
  const double padded_phi = std::min(c.phi * scale * scale * scale, 0.58);
  sd::PackingParams params;
  params.seed = c.seed;

  sd::PackingReport got_report;
  const auto got = sd::pack_particles(radii, padded_phi, params, &got_report);
  sd::PackingReport want_report;
  std::vector<std::size_t> grids;
  const auto want =
      walk_per_sweep_pack(radii, padded_phi, params, &want_report, &grids);

  EXPECT_EQ(got_report.success, want_report.success);
  EXPECT_EQ(got_report.stages, want_report.stages);
  EXPECT_EQ(got_report.total_sweeps, want_report.total_sweeps);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got_report.worst_overlap),
            std::bit_cast<std::uint64_t>(want_report.worst_overlap));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.box().length()),
            std::bit_cast<std::uint64_t>(want.box().length()));
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Vec3 a = got.positions()[i];
    const Vec3 b = want.positions()[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.x), std::bit_cast<std::uint64_t>(b.x))
        << "particle " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.y), std::bit_cast<std::uint64_t>(b.y))
        << "particle " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.z), std::bit_cast<std::uint64_t>(b.z))
        << "particle " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.radii()[i]),
              std::bit_cast<std::uint64_t>(want.radii()[i]))
        << "particle " << i;
  }
  if (c.nine_cell_grid) {
    EXPECT_NE(std::find(grids.begin(), grids.end(), 9u), grids.end());
  }
}

// The benchmark's two packings (the crowded workloads' 600 particles
// and ensemble_serve's 100-particle base) and a 100-particle system
// whose later stages relax on a 9-cell grid, the case that wraps most.
INSTANTIATE_TEST_SUITE_P(
    Packings, PackerBitsTest,
    ::testing::Values(PackCase{"crowded_600", 600, 0.5, 42, false},
                      PackCase{"serving_base_100", 100, 0.3, 2024, false},
                      PackCase{"nine_cells_100", 100, 0.3, 42, true}),
    case_name<PackCase>);

}  // namespace
