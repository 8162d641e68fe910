#include "sd/assembly_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "obs/obs.hpp"
#include "sd/cell_list.hpp"
#include "sd/effective_viscosity.hpp"
#include "sd/lubrication.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace mrhs::sd {

namespace {

constexpr double kDerivedSkinFactor = 6.0;

}  // namespace

AssemblyEngine::AssemblyEngine(ResistanceParams params,
                               AssemblyOptions options)
    : params_(params),
      tolerance_(options.tolerance > 0.0 ? options.tolerance : 0.0),
      skin_(options.skin > 0.0 ? options.skin
                               : kDerivedSkinFactor * tolerance_),
      full_(params) {}

AssemblyResult AssemblyEngine::assemble_full(const ParticleSystem& system) {
  refill_full(system);
  return {std::exchange(cached_, {}), last_stats_};
}

AssemblyResult AssemblyEngine::assemble_incremental(
    const ParticleSystem& system) {
  return {assemble(system), last_stats_};
}

void AssemblyEngine::refill_full(const ParticleSystem& system) {
  last_stats_ = {};
  full_.assemble_full(system, cached_, &last_stats_);
  // Whatever pattern was cached no longer reflects the last assembly;
  // force the next incremental call to start from a rebuild.
  has_pattern_ = false;
  pairs_.clear();
  ++epoch_;
  ++rebuilds_total_;
  dirty_total_ += last_stats_.pairs_dirty;
  last_stats_.pattern_epoch = epoch_;
  OBS_COUNTER_ADD("assembly.pattern_rebuilds", 1);
  OBS_COUNTER_ADD("assembly.pairs_dirty",
                  static_cast<std::int64_t>(last_stats_.pairs_dirty));
}

const sparse::BcrsMatrix& AssemblyEngine::assemble(
    const ParticleSystem& system) {
  // tolerance = 0 is the bitwise reference: reuse would still be
  // numerically exact pair-by-pair, but the skin-widened pattern
  // stores extra zero blocks and changes the diagonal accumulation
  // order, which perturbs the last bits. Route to the full path.
  if (tolerance_ <= 0.0) {
    refill_full(system);
    return cached_;
  }

  last_stats_ = {};
  if (!has_pattern_ || pattern_expired(system)) {
    rebuild_pattern(system, last_stats_);
    OBS_COUNTER_ADD("assembly.pattern_rebuilds", 1);
  } else {
    refresh_dirty_pairs(system, last_stats_);
  }
  last_stats_.pattern_epoch = epoch_;
  dirty_total_ += last_stats_.pairs_dirty;
  reused_total_ += last_stats_.blocks_reused;
  OBS_COUNTER_ADD("assembly.pairs_dirty",
                  static_cast<std::int64_t>(last_stats_.pairs_dirty));
  OBS_COUNTER_ADD("assembly.blocks_reused",
                  static_cast<std::int64_t>(last_stats_.blocks_reused));

  fill_values(system);
  return cached_;
}

bool AssemblyEngine::pattern_expired(const ParticleSystem& system) const {
  if (pattern_refs_.size() != system.size()) return true;
  const auto pos = system.positions();
  const auto& box = system.box();
  const double budget2 = 0.25 * skin_ * skin_;
  for (std::size_t i = 0; i < pattern_refs_.size(); ++i) {
    if (box.min_image(pos[i], pattern_refs_[i]).norm2() > budget2) {
      return true;
    }
  }
  return false;
}

void AssemblyEngine::recompute_pair(PairSlot& p,
                                    const ParticleSystem& system) {
  const auto radii = system.radii();
  const std::size_t i = static_cast<std::size_t>(p.i);
  const std::size_t j = static_cast<std::size_t>(p.j);
  const Vec3 d = system.box().min_image(p.ref_i, p.ref_j);
  const double dist2 = d.norm2();
  p.active = false;
  p.scaled_gap = std::numeric_limits<double>::infinity();
  std::fill(std::begin(p.tensor), std::end(p.tensor), 0.0);
  if (dist2 == 0.0) return;
  const double distance = std::sqrt(dist2);
  const double gap = distance - radii[i] - radii[j];
  if (!lubrication_active(gap, radii[i], radii[j], params_.lubrication)) {
    return;
  }
  p.active = true;
  const Vec3 unit = (1.0 / distance) * d;
  lubrication_pair_tensor(unit, radii[i], radii[j], gap,
                          params_.lubrication,
                          std::span<double, 9>(p.tensor));
  const double mean_radius = 0.5 * (radii[i] + radii[j]);
  p.scaled_gap =
      std::max(gap / mean_radius, params_.lubrication.min_gap_scaled);
}

void AssemblyEngine::rebuild_pattern(const ParticleSystem& system,
                                     AssemblyStats& stats) {
  const std::size_t n = system.size();
  const auto pos = system.positions();

  // Pass 1: enumerate pairs with the skin-widened reach, compute each
  // tensor at the current (= reference) configuration, count degrees.
  const double cutoff =
      lubrication_cutoff_distance(system.max_radius(), params_.lubrication) +
      skin_;
  const CellList cells(system, cutoff);
  pairs_.clear();
  // The new pattern refills the previous matrix's arrays.
  sparse::BcrsMatrix::Storage storage = cached_.release();
  std::vector<std::int64_t>& row_ptr = storage.row_ptr;
  row_ptr.assign(n + 1, 0);
  cells.for_each_interacting_pair(
      params_.lubrication.max_gap_scaled, skin_, [&](const Pair& p) {
        PairSlot rec{};
        rec.i = static_cast<std::int32_t>(p.i);
        rec.j = static_cast<std::int32_t>(p.j);
        rec.ref_i = pos[p.i];
        rec.ref_j = pos[p.j];
        pairs_.push_back(rec);
        ++row_ptr[p.i + 1];
        ++row_ptr[p.j + 1];
      });
  double min_gap = std::numeric_limits<double>::infinity();
  for (PairSlot& p : pairs_) {
    recompute_pair(p, system);
    if (p.active) {
      ++stats.pairs_active;
      min_gap = std::min(min_gap, p.scaled_gap);
    }
  }
  stats.pairs_in_cutoff = pairs_.size();
  stats.pairs_dirty = stats.pairs_active;
  stats.min_scaled_gap = stats.pairs_active > 0 ? min_gap : 0.0;
  stats.pattern_rebuilt = true;

  // Pass 2: BCRS layout. Every row holds its diagonal block plus one
  // block per incident pattern pair; rows are column-sorted, and each
  // pair records where its two off-diagonal blocks landed so value
  // refills never search.
  for (std::size_t i = 0; i < n; ++i) row_ptr[i + 1] += 1 + row_ptr[i];
  const std::size_t nnzb = static_cast<std::size_t>(row_ptr[n]);
  std::vector<std::int32_t>& col_idx = storage.col_idx;
  col_idx.assign(nnzb, 0);
  // slot -> owning pair and side (2k for (i,j), 2k+1 for (j,i)); -1
  // marks a diagonal slot.
  std::vector<std::int64_t> slot_tag(nnzb, -1);
  std::vector<std::int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    col_idx[static_cast<std::size_t>(cursor[i])] =
        static_cast<std::int32_t>(i);
    ++cursor[i];
  }
  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    const PairSlot& p = pairs_[k];
    const auto slot_ij = static_cast<std::size_t>(cursor[p.i]++);
    const auto slot_ji = static_cast<std::size_t>(cursor[p.j]++);
    col_idx[slot_ij] = p.j;
    col_idx[slot_ji] = p.i;
    slot_tag[slot_ij] = static_cast<std::int64_t>(2 * k);
    slot_tag[slot_ji] = static_cast<std::int64_t>(2 * k + 1);
  }
  std::vector<std::size_t> order;
  std::vector<std::int32_t> cols_tmp;
  std::vector<std::int64_t> tags_tmp;
  for (std::size_t i = 0; i < n; ++i) {
    const auto lo = static_cast<std::size_t>(row_ptr[i]);
    const auto hi = static_cast<std::size_t>(row_ptr[i + 1]);
    const std::size_t len = hi - lo;
    if (len > 1) {
      order.resize(len);
      for (std::size_t k = 0; k < len; ++k) order[k] = k;
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  return col_idx[lo + a] < col_idx[lo + b];
                });
      cols_tmp.resize(len);
      tags_tmp.resize(len);
      for (std::size_t k = 0; k < len; ++k) {
        cols_tmp[k] = col_idx[lo + order[k]];
        tags_tmp[k] = slot_tag[lo + order[k]];
      }
      std::copy(cols_tmp.begin(), cols_tmp.end(), col_idx.begin() +
                                                      static_cast<std::ptrdiff_t>(lo));
      std::copy(tags_tmp.begin(), tags_tmp.end(), slot_tag.begin() +
                                                      static_cast<std::ptrdiff_t>(lo));
    }
  }
  diag_slot_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (auto s = static_cast<std::size_t>(row_ptr[i]);
         s < static_cast<std::size_t>(row_ptr[i + 1]); ++s) {
      const std::int64_t tag = slot_tag[s];
      if (tag < 0) {
        diag_slot_[i] = static_cast<std::int64_t>(s);
      } else if ((tag & 1) == 0) {
        pairs_[static_cast<std::size_t>(tag / 2)].slot_ij =
            static_cast<std::int64_t>(s);
      } else {
        pairs_[static_cast<std::size_t>(tag / 2)].slot_ji =
            static_cast<std::int64_t>(s);
      }
    }
  }

  pattern_refs_.assign(pos.begin(), pos.end());
  storage.values.resize(nnzb * sparse::kBlockSize);
  util::first_touch_zero(storage.values.data(), storage.values.size());
  cached_ = sparse::BcrsMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                               std::move(storage.values));
  has_pattern_ = true;
  ++epoch_;
  ++rebuilds_total_;
}

void AssemblyEngine::refresh_dirty_pairs(const ParticleSystem& system,
                                         AssemblyStats& stats) {
  const auto pos = system.positions();
  const auto& box = system.box();
  double min_gap = std::numeric_limits<double>::infinity();
  for (PairSlot& p : pairs_) {
    const std::size_t i = static_cast<std::size_t>(p.i);
    const std::size_t j = static_cast<std::size_t>(p.j);
    // Monotone per-pair drift accumulator: references only move when
    // the tensor is recomputed, so the drift below keeps growing
    // until it crosses the tolerance — a dirty pair can never be
    // "forgotten" by intermediate assemblies.
    const double drift = box.min_image(pos[i], p.ref_i).norm() +
                         box.min_image(pos[j], p.ref_j).norm();
    if (drift > tolerance_) {
      p.ref_i = pos[i];
      p.ref_j = pos[j];
      recompute_pair(p, system);
      ++stats.pairs_dirty;
    } else {
      stats.blocks_reused += 2;
    }
    if (p.active) {
      ++stats.pairs_active;
      min_gap = std::min(min_gap, p.scaled_gap);
    }
  }
  stats.pairs_in_cutoff = pairs_.size();
  stats.min_scaled_gap = stats.pairs_active > 0 ? min_gap : 0.0;
  stats.pattern_rebuilt = false;
}

void AssemblyEngine::fill_values(const ParticleSystem& system) {
  const auto radii = system.radii();
  const double phi = params_.phi_override >= 0.0 ? params_.phi_override
                                                 : system.volume_fraction();
  MRHS_ASSERT_MSG(diag_slot_.size() == system.size(),
                  "assembly pattern does not match the system");
  cached_.zero_values();
  for (std::size_t i = 0; i < system.size(); ++i) {
    double* blk = cached_.block(static_cast<std::size_t>(diag_slot_[i]));
    const double drag =
        params_.include_far_field
            ? far_field_drag(radii[i], params_.viscosity, phi)
            : 0.0;
    blk[0] = blk[4] = blk[8] = drag;
  }
  // Fixed pattern order keeps the diagonal accumulation bitwise
  // stable across calls for as long as the pattern lives.
  for (const PairSlot& p : pairs_) {
    if (!p.active) continue;
    double* diag_i = cached_.block(static_cast<std::size_t>(diag_slot_[p.i]));
    double* diag_j = cached_.block(static_cast<std::size_t>(diag_slot_[p.j]));
    double* off_ij = cached_.block(static_cast<std::size_t>(p.slot_ij));
    double* off_ji = cached_.block(static_cast<std::size_t>(p.slot_ji));
    for (int k = 0; k < 9; ++k) {
      diag_i[k] += p.tensor[k];
      diag_j[k] += p.tensor[k];
      off_ij[k] = -p.tensor[k];
      off_ji[k] = -p.tensor[k];
    }
  }
}

AssemblyEngineState AssemblyEngine::export_state() const {
  AssemblyEngineState state;
  state.tolerance = tolerance_;
  state.skin = skin_;
  state.pattern_epoch = epoch_;
  state.has_pattern = has_pattern_;
  if (has_pattern_) {
    state.pattern_refs = pattern_refs_;
    state.pair_refs.reserve(2 * pairs_.size());
    for (const PairSlot& p : pairs_) {
      state.pair_refs.push_back(p.ref_i);
      state.pair_refs.push_back(p.ref_j);
    }
  }
  return state;
}

void AssemblyEngine::import_state(const AssemblyEngineState& state,
                                  const ParticleSystem& system) {
  tolerance_ = state.tolerance;
  skin_ = state.skin;
  epoch_ = state.pattern_epoch;
  has_pattern_ = false;
  pairs_.clear();
  pattern_refs_.clear();
  if (!state.has_pattern || state.pattern_refs.size() != system.size()) {
    return;  // no pattern to restore; next incremental call rebuilds
  }

  // Re-enumerate the pattern at the stored build positions: cell-list
  // enumeration is deterministic in positions, so slot layout and
  // pair order come back exactly as exported.
  sd::ParticleSystem ref_system(
      state.pattern_refs,
      std::vector<double>(system.radii().begin(), system.radii().end()),
      system.box());
  AssemblyStats scratch{};
  rebuild_pattern(ref_system, scratch);
  epoch_ = state.pattern_epoch;  // rebuild bumped it; restore
  pattern_refs_ = state.pattern_refs;
  if (state.pair_refs.size() != 2 * pairs_.size()) {
    // State does not match this system (corrupt or foreign): degrade
    // to "no pattern" rather than resuming with wrong tensors.
    has_pattern_ = false;
    pairs_.clear();
    pattern_refs_.clear();
    return;
  }
  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    pairs_[k].ref_i = state.pair_refs[2 * k];
    pairs_[k].ref_j = state.pair_refs[2 * k + 1];
    // Tensors are pure functions of the references; recomputing them
    // reproduces the exported cache bitwise.
    recompute_pair(pairs_[k], system);
  }
}

}  // namespace mrhs::sd
