// Linked-cell neighbor search under periodic boundary conditions.
//
// Stokesian dynamics rebuilds the lubrication pair list every (half)
// step; the cell list makes that O(n) for bounded density. Cells are
// finer than the cutoff (with a matching multi-cell stencil), and each
// cell records the largest radius it holds: polydisperse systems —
// whose conservative cutoff is set by the largest particle pair — then
// prune almost all far cell pairs instead of degenerating into an
// all-pairs scan.
//
// The walk order is a contract: the packer relaxes overlaps in
// Gauss–Seidel order, pushing pairs in exactly the order
// for_each_overlap_candidate hands them out, so every packed
// configuration (and every trajectory that starts from one) follows
// the grid rule, the half-stencil order and the intra-cell order below.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sd/particle_system.hpp"
#include "sd/vec3.hpp"

namespace mrhs::sd {

/// A neighbor pair with its minimum-image geometry.
struct Pair {
  std::size_t i;
  std::size_t j;      // i < j
  Vec3 unit;          // (x_i - x_j)/|x_i - x_j|, minimum image
  double distance;    // center-to-center
  double gap;         // distance - a_i - a_j (negative if overlapping)
};

class CellList {
 public:
  /// Upper bound on cells per side. A huge box (or a tiny cutoff) would
  /// otherwise ask for more cells than size_t or memory holds; capped
  /// cells are larger than the cutoff needs, and the same stencil still
  /// covers it. No caller comes near the cap (50 per side when packing
  /// 20,000 particles).
  static constexpr std::size_t kMaxCellsPerSide = 128;

  /// Builds the grid for pairs with center distance below `cutoff`.
  /// Throws std::invalid_argument unless the cutoff and the box length
  /// are finite and positive.
  CellList(const ParticleSystem& system, double cutoff);

  [[nodiscard]] double cutoff() const { return cutoff_; }
  [[nodiscard]] std::size_t cells_per_side() const { return cells_; }
  [[nodiscard]] int stencil_radius() const { return radius_; }

  /// Enumerate each pair with distance < cutoff exactly once. The
  /// callback is a template parameter so tight loops (packing,
  /// assembly) pay no indirect-call cost per pair.
  template <class Fn>
  void for_each_pair(Fn&& fn) const;

  /// Enumerate only *overlapping* pairs (distance < a_i + a_j). Cell
  /// pairs that no contained radii could bridge are pruned wholesale.
  template <class Fn>
  void for_each_overlapping_pair(Fn&& fn) const;

  /// Hand out, as fn(i, j) with i < j, every index pair that
  /// for_each_overlapping_pair tests, in the order it tests them: after
  /// the cell-pair pruning, before any distance test. The sequence
  /// depends only on the grid built at construction, not on where the
  /// particles have moved since, so the packer records it once per
  /// grid and sweeps the record.
  template <class Fn>
  void for_each_overlap_candidate(Fn&& fn) const {
    for_each_pair_impl(1.0, 0.0, fn);
  }

  /// Enumerate only pairs with surface gap below
  /// `max_gap_scaled * (a_i + a_j)/2` — the lubrication activity
  /// criterion. Cell-level and pair-level tests both run on squared
  /// distances; this is the resistance assembler's hot loop.
  template <class Fn>
  void for_each_interacting_pair(double max_gap_scaled, Fn&& fn) const;

  /// Same activity criterion widened by an absolute `extra_reach`
  /// (a Verlet skin): pairs within `touch * reach_factor + extra_reach`
  /// are emitted. The assembly engine builds its reusable sparsity
  /// pattern with this overload, so pairs can *become* active without
  /// a pattern rebuild as long as no particle drifts more than
  /// extra_reach/2. The CellList cutoff must cover the widened reach.
  template <class Fn>
  void for_each_interacting_pair(double max_gap_scaled, double extra_reach,
                                 Fn&& fn) const;

  /// Materialized pair list (sorted by (i, j) for determinism).
  [[nodiscard]] std::vector<Pair> pairs() const;

 private:
  /// Walk candidate index pairs (i < j). `reach_factor` scales the
  /// radii-sum reach used for cell-pair pruning (plus an absolute
  /// `extra_reach` margin); pass a negative factor to prune on the
  /// distance cutoff alone.
  template <class Fn>
  void for_each_pair_impl(double reach_factor, double extra_reach,
                          Fn&& fn) const;

  template <class Fn>
  void emit(std::size_t i, std::size_t j, Fn&& fn) const;

  [[nodiscard]] std::size_t cell_of(const Vec3& p) const;

  /// Flat index of cell (ix, iy, iz), each coordinate at most one
  /// period outside [0, cells_): stencil offsets reach radius_ cells and
  /// the grid rule keeps cells_ >= 2 * radius_ + 1, so one conditional
  /// add or subtract per axis wraps it.
  [[nodiscard]] std::size_t cell_index(std::ptrdiff_t ix, std::ptrdiff_t iy,
                                       std::ptrdiff_t iz) const {
    const auto c = static_cast<std::ptrdiff_t>(cells_);
    const auto wrap = [c](std::ptrdiff_t v) {
      if (v < 0) return v + c;
      if (v >= c) return v - c;
      return v;
    };
    return static_cast<std::size_t>((wrap(ix) * c + wrap(iy)) * c + wrap(iz));
  }

  const ParticleSystem* system_;
  double cutoff_;
  std::size_t cells_ = 1;  // cells per side; 1 = brute-force fallback
  double cell_size_ = 0.0;
  int radius_ = 1;  // stencil radius in cells
  std::vector<std::array<int, 3>> half_stencil_;  // dedup'd offsets
  std::vector<double> stencil_gap2_;  // min cell-pair distance^2 per offset
  std::vector<std::int32_t> head_;    // first particle in each cell
  std::vector<std::int32_t> next_;    // linked list through particles
  std::vector<double> cell_max_radius_;
};

template <class Fn>
void CellList::for_each_pair_impl(double reach_factor, double extra_reach,
                                  Fn&& fn) const {
  const std::size_t n = system_->size();
  if (cells_ == 1) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) fn(i, j);
    }
    return;
  }

  const auto c = static_cast<std::ptrdiff_t>(cells_);
  for (std::ptrdiff_t ix = 0; ix < c; ++ix) {
    for (std::ptrdiff_t iy = 0; iy < c; ++iy) {
      for (std::ptrdiff_t iz = 0; iz < c; ++iz) {
        const std::size_t home = cell_index(ix, iy, iz);
        if (head_[home] < 0) continue;
        // Pairs within the home cell.
        for (std::int32_t a = head_[home]; a >= 0; a = next_[a]) {
          for (std::int32_t b = next_[a]; b >= 0; b = next_[b]) {
            fn(std::min<std::size_t>(a, b), std::max<std::size_t>(a, b));
          }
        }
        // Pairs with each half-stencil neighbor cell, pruned by the
        // largest reach any contained pair could have.
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
}

template <class Fn>
void CellList::emit(std::size_t i, std::size_t j, Fn&& fn) const {
  const auto pos = system_->positions();
  const Vec3 d = system_->box().min_image(pos[i], pos[j]);
  const double dist2 = d.norm2();
  if (dist2 >= cutoff_ * cutoff_ || dist2 == 0.0) return;
  const auto radii = system_->radii();
  Pair p;
  p.i = i;
  p.j = j;
  p.distance = std::sqrt(dist2);
  p.unit = (1.0 / p.distance) * d;
  p.gap = p.distance - radii[i] - radii[j];
  fn(p);
}

template <class Fn>
void CellList::for_each_pair(Fn&& fn) const {
  for_each_pair_impl(-1.0, 0.0,
                     [&](std::size_t i, std::size_t j) { emit(i, j, fn); });
}

template <class Fn>
void CellList::for_each_interacting_pair(double max_gap_scaled,
                                         Fn&& fn) const {
  for_each_interacting_pair(max_gap_scaled, 0.0, fn);
}

template <class Fn>
void CellList::for_each_interacting_pair(double max_gap_scaled,
                                         double extra_reach, Fn&& fn) const {
  const auto pos = system_->positions();
  const auto radii = system_->radii();
  const auto& box = system_->box();
  const double reach_factor = 1.0 + 0.5 * max_gap_scaled;
  for_each_pair_impl(
      reach_factor, extra_reach, [&](std::size_t i, std::size_t j) {
        const Vec3 d = box.min_image(pos[i], pos[j]);
        const double dist2 = d.norm2();
        const double touch = radii[i] + radii[j];
        const double reach = touch * reach_factor + extra_reach;
        if (dist2 >= reach * reach || dist2 == 0.0) return;
        Pair p;
        p.i = i;
        p.j = j;
        p.distance = std::sqrt(dist2);
        p.unit = (1.0 / p.distance) * d;
        p.gap = p.distance - touch;
        fn(p);
      });
}

template <class Fn>
void CellList::for_each_overlapping_pair(Fn&& fn) const {
  const auto pos = system_->positions();
  const auto radii = system_->radii();
  const auto& box = system_->box();
  for_each_overlap_candidate([&](std::size_t i, std::size_t j) {
    const Vec3 d = box.min_image(pos[i], pos[j]);
    const double dist2 = d.norm2();
    const double touch = radii[i] + radii[j];
    if (dist2 >= touch * touch || dist2 == 0.0) return;
    Pair p;
    p.i = i;
    p.j = j;
    p.distance = std::sqrt(dist2);
    p.unit = (1.0 / p.distance) * d;
    p.gap = p.distance - touch;
    fn(p);
  });
}

}  // namespace mrhs::sd
