#include "sd/cell_list.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mrhs::sd {

CellList::CellList(const ParticleSystem& system, double cutoff)
    : system_(&system), cutoff_(cutoff) {
  if (!std::isfinite(cutoff) || cutoff <= 0.0) {
    throw std::invalid_argument("CellList: cutoff not finite and > 0");
  }
  const double box_len = system.box().length();
  if (!std::isfinite(box_len) || box_len <= 0.0) {
    throw std::invalid_argument("CellList: box not finite and > 0");
  }

  // Prefer fine cells (a wide stencil) so the per-cell max-radius
  // pruning has leverage in polydisperse systems; fall back to coarser
  // cells, then to brute force, when the box is too small for the
  // wrap-safe stencil (cells >= 2R+1). The count is capped in floating
  // point, before the cast, so it always fits (and cubes within) size_t.
  for (int radius : {4, 3, 2, 1}) {
    const double target = cutoff / static_cast<double>(radius);
    const double cells = std::min(std::floor(box_len / target),
                                  static_cast<double>(kMaxCellsPerSide));
    if (cells >= static_cast<double>(2 * radius + 1)) {
      cells_ = static_cast<std::size_t>(cells);
      radius_ = radius;
      break;
    }
    cells_ = 1;
  }
  cell_size_ = box_len / static_cast<double>(cells_);

  if (cells_ > 1) {
    // Half stencil: offsets lexicographically positive, within the
    // stencil cube, and not farther than the cutoff at their nearest
    // corners. stencil_gap2_ caches each offset's minimum possible
    // center distance for the radii-aware pruning.
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

std::size_t CellList::cell_of(const Vec3& p) const {
  auto idx = [&](double v) {
    auto k = static_cast<std::size_t>(system_->box().wrap1(v) / cell_size_);
    return std::min(k, cells_ - 1);  // guard the v == L edge
  };
  return (idx(p.x) * cells_ + idx(p.y)) * cells_ + idx(p.z);
}

std::vector<Pair> CellList::pairs() const {
  std::vector<Pair> out;
  for_each_pair([&](const Pair& p) { out.push_back(p); });
  std::sort(out.begin(), out.end(), [](const Pair& a, const Pair& b) {
    return a.i != b.i ? a.i < b.i : a.j < b.j;
  });
  return out;
}

}  // namespace mrhs::sd
