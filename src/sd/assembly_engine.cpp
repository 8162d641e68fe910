#include "sd/assembly_engine.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sd/cell_list.hpp"
#include "sd/effective_viscosity.hpp"
#include "sd/lubrication.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace mrhs::sd {

namespace {

/// Incremental-path skin, as a multiple of the tolerance: wide enough
/// that block refreshes, not pattern rebuilds, dominate.
constexpr double kDerivedSkinFactor = 6.0;

/// Candidate-list skin, as a fraction of the largest radius (0.157 on
/// the benchmark packing). At the benchmark's step sizes one list
/// lasts dozens of steps.
constexpr double kListSkinFraction = 0.05;

/// Below this many candidates both exact-path passes run serially: a
/// parallel region costs more than the work (an ensemble member has
/// ~850 candidates, the 600-particle benchmark packing ~7,800).
constexpr std::size_t kThreadedMinCandidates = 4096;

}  // namespace

AssemblyEngine::AssemblyEngine(ResistanceParams params,
                               AssemblyOptions options)
    : params_(params),
      tolerance_(options.tolerance > 0.0 ? options.tolerance : 0.0),
      skin_(kDerivedSkinFactor * tolerance_),
      threads_(options.threads) {}

AssemblyResult AssemblyEngine::assemble_full(const ParticleSystem& system) {
  drop_list();
  assemble_exact(system);
  // The matrix leaves the engine, so no list layout or pattern
  // describes cached_ any more.
  drop_list();
  has_pattern_ = false;
  pairs_.clear();
  return {std::exchange(cached_, {}), last_stats_};
}

AssemblyResult AssemblyEngine::assemble_incremental(
    const ParticleSystem& system) {
  return {assemble(system), last_stats_};
}

const sparse::BcrsMatrix& AssemblyEngine::assemble(
    const ParticleSystem& system) {
  if (tolerance_ <= 0.0) {
    assemble_exact(system);
    return cached_;
  }

  last_stats_ = {};
  if (!has_pattern_ || pattern_expired(system, skin_)) {
    rebuild_pattern(system, last_stats_);
    OBS_COUNTER_ADD("assembly.pattern_rebuilds", 1);
  } else {
    refresh_dirty_pairs(system, last_stats_);
  }
  dirty_total_ += last_stats_.pairs_dirty;
  reused_total_ += last_stats_.blocks_reused;
  OBS_COUNTER_ADD("assembly.pairs_dirty",
                  static_cast<std::int64_t>(last_stats_.pairs_dirty));
  OBS_COUNTER_ADD("assembly.blocks_reused",
                  static_cast<std::int64_t>(last_stats_.blocks_reused));

  fill_values(system);
  return cached_;
}

void AssemblyEngine::assemble_exact(const ParticleSystem& system) {
  last_stats_ = {};
  if (!has_list_ || pattern_expired(system, list_skin_)) {
    search_candidates(system);
    last_stats_.pattern_rebuilt = true;
  }
  const std::size_t n = system.size();
  const std::size_t count = cand_.size();
  int threads = threads_ > 0 ? threads_ : util::max_threads();
  if (count < kThreadedMinCandidates) threads = 1;
  // Pass 1: each candidate's activity and tensor, in its own slot.
  util::parallel_for(threads, 0, static_cast<std::ptrdiff_t>(count),
                     [&](std::ptrdiff_t k) {
                       compute_candidate(static_cast<std::size_t>(k), system);
                     });
  last_stats_.pairs_in_cutoff = count;
  last_stats_.pairs_active = static_cast<std::size_t>(
      std::count(cand_active_.begin(), cand_active_.end(), 1));
  last_stats_.pairs_dirty = last_stats_.pairs_active;
  if (!has_layout_ || cand_active_ != laid_out_) lay_out_active(n);

  // Pass 2: block rows, each summed by one worker.
  const double phi = params_.phi_override >= 0.0 ? params_.phi_override
                                                 : system.volume_fraction();
  const auto radii = system.radii();
  util::parallel_for(
      threads, 0, static_cast<std::ptrdiff_t>(n), [&](std::ptrdiff_t r) {
        const auto row = static_cast<std::size_t>(r);
        fill_row(row, params_.include_far_field
                          ? far_field_drag(radii[row], params_.viscosity, phi)
                          : 0.0);
      });
  dirty_total_ += last_stats_.pairs_dirty;
  OBS_COUNTER_ADD("assembly.pairs_dirty",
                  static_cast<std::int64_t>(last_stats_.pairs_dirty));
}

void AssemblyEngine::search_candidates(const ParticleSystem& system) {
  const std::size_t n = system.size();
  list_skin_ = kListSkinFraction * system.max_radius();
  const CellList cells(system, lubrication_cutoff_distance(
                                   system.max_radius(), params_.lubrication) +
                                   list_skin_);
  cand_.clear();
  cells.for_each_interacting_pair(
      params_.lubrication.max_gap_scaled, list_skin_, [&](const Pair& p) {
        cand_.emplace_back(static_cast<std::int32_t>(p.i),
                           static_cast<std::int32_t>(p.j));
      });
  // A cell grid emits cell by cell; canonical (i, j) order fixes every
  // row's summation order whatever the grid.
  std::sort(cand_.begin(), cand_.end());

  // Filled in candidate order, row r lists every (i, r) before every
  // (r, j), each run ascending: its partners come out column-sorted.
  partner_ptr_.assign(n + 1, 0);
  for (const auto& [i, j] : cand_) {
    ++partner_ptr_[static_cast<std::size_t>(i) + 1];
    ++partner_ptr_[static_cast<std::size_t>(j) + 1];
  }
  for (std::size_t r = 0; r < n; ++r) partner_ptr_[r + 1] += partner_ptr_[r];
  std::vector<std::size_t> next(partner_ptr_.begin(), partner_ptr_.end() - 1);
  partners_.resize(2 * cand_.size());
  for (std::size_t k = 0; k < cand_.size(); ++k) {
    const auto [i, j] = cand_[k];
    const auto kk = static_cast<std::int32_t>(k);
    partners_[next[static_cast<std::size_t>(i)]++] = {j, kk};
    partners_[next[static_cast<std::size_t>(j)]++] = {i, kk};
  }
  cand_tensor_.resize(9 * cand_.size());
  cand_active_.resize(cand_.size());
  const auto pos = system.positions();
  pattern_refs_.assign(pos.begin(), pos.end());
  has_list_ = true;
  has_layout_ = false;
  ++epoch_;
  ++rebuilds_total_;
  OBS_COUNTER_ADD("assembly.pattern_rebuilds", 1);
}

void AssemblyEngine::drop_list() {
  has_list_ = false;
  has_layout_ = false;
}

void AssemblyEngine::compute_candidate(std::size_t k,
                                       const ParticleSystem& system) {
  // The from-scratch enumeration's formulas term for term: any other
  // rounding (distance - a_i - a_j for the gap, say) moves the bits.
  const auto pos = system.positions();
  const auto radii = system.radii();
  const auto i = static_cast<std::size_t>(cand_[k].first);
  const auto j = static_cast<std::size_t>(cand_[k].second);
  const Vec3 d = system.box().min_image(pos[i], pos[j]);
  const double dist2 = d.norm2();
  const double touch = radii[i] + radii[j];
  const double reach =
      touch * (1.0 + 0.5 * params_.lubrication.max_gap_scaled);
  const double distance = std::sqrt(dist2);
  const double gap = distance - touch;
  cand_active_[k] =
      !(dist2 >= reach * reach || dist2 == 0.0) &&
      lubrication_active(gap, radii[i], radii[j], params_.lubrication);
  if (cand_active_[k] == 0) return;
  lubrication_pair_tensor((1.0 / distance) * d, radii[i], radii[j], gap,
                          params_.lubrication,
                          std::span<double, 9>(&cand_tensor_[9 * k], 9));
}

void AssemblyEngine::lay_out_active(std::size_t n) {
  // Refill the previous layout's arrays. The worst case (every
  // candidate active) is reserved once per list, so later relayouts
  // allocate nothing.
  sparse::BcrsMatrix::Storage storage = cached_.release();
  std::vector<std::int32_t>& col_idx = storage.col_idx;
  col_idx.clear();
  col_idx.reserve(n + 2 * cand_.size());
  storage.values.clear();
  storage.values.reserve((n + 2 * cand_.size()) * sparse::kBlockSize);
  storage.row_ptr.assign(n + 1, 0);
  diag_slot_.resize(n);
  for (std::size_t r = 0; r < n; ++r) {
    const auto diag = static_cast<std::int32_t>(r);
    diag_slot_[r] = -1;
    for (auto e = static_cast<std::size_t>(partner_ptr_[r]);
         e < static_cast<std::size_t>(partner_ptr_[r + 1]); ++e) {
      const Partner& p = partners_[e];
      if (cand_active_[static_cast<std::size_t>(p.cand)] == 0) continue;
      if (diag_slot_[r] < 0 && p.col > diag) {
        diag_slot_[r] = static_cast<std::int64_t>(col_idx.size());
        col_idx.push_back(diag);
      }
      col_idx.push_back(p.col);
    }
    if (diag_slot_[r] < 0) {
      diag_slot_[r] = static_cast<std::int64_t>(col_idx.size());
      col_idx.push_back(diag);
    }
    storage.row_ptr[r + 1] = static_cast<std::int64_t>(col_idx.size());
  }
  storage.values.resize(col_idx.size() * sparse::kBlockSize);
  cached_ = sparse::BcrsMatrix(n, n, std::move(storage.row_ptr),
                               std::move(col_idx), std::move(storage.values));
  laid_out_ = cand_active_;
  has_layout_ = true;
}

void AssemblyEngine::fill_row(std::size_t r, double drag) {
  double diag[9] = {drag, 0.0, 0.0, 0.0, drag, 0.0, 0.0, 0.0, drag};
  const auto diag_slot = static_cast<std::size_t>(diag_slot_[r]);
  auto slot = static_cast<std::size_t>(cached_.row_ptr()[r]);
  for (auto e = static_cast<std::size_t>(partner_ptr_[r]);
       e < static_cast<std::size_t>(partner_ptr_[r + 1]); ++e) {
    const auto k = static_cast<std::size_t>(partners_[e].cand);
    if (cand_active_[k] == 0) continue;
    if (slot == diag_slot) ++slot;
    const double* t = &cand_tensor_[9 * k];
    double* off = cached_.block(slot++);
    for (int c = 0; c < 9; ++c) {
      diag[c] += t[c];
      off[c] = -t[c];
    }
  }
  std::copy(std::begin(diag), std::end(diag), cached_.block(diag_slot));
}

bool AssemblyEngine::pattern_expired(const ParticleSystem& system,
                                     double skin) const {
  if (pattern_refs_.size() != system.size()) return true;
  const auto pos = system.positions();
  const auto& box = system.box();
  const double budget2 = 0.25 * skin * skin;
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
  for (PairSlot& p : pairs_) {
    recompute_pair(p, system);
    if (p.active) ++stats.pairs_active;
  }
  stats.pairs_in_cutoff = pairs_.size();
  stats.pairs_dirty = stats.pairs_active;
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
    if (p.active) ++stats.pairs_active;
  }
  stats.pairs_in_cutoff = pairs_.size();
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
  drop_list();
  if (tolerance_ <= 0.0 || !state.has_pattern ||
      state.pattern_refs.size() != system.size()) {
    return;  // no pattern to restore; the next call searches
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
