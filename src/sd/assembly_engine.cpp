#include "sd/assembly_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "sd/cell_list.hpp"
#include "sd/effective_viscosity.hpp"
#include "sd/lubrication.hpp"
#include "util/parallel.hpp"

namespace mrhs::sd {

namespace {

/// Incremental-path skin, as a multiple of the tolerance: wide enough
/// that tensor recomputes, not searches, dominate.
constexpr double kDerivedSkinFactor = 6.0;

/// Exact-path skin, as a fraction of the largest radius (0.157 on the
/// benchmark packing). At the benchmark's step sizes one list lasts
/// dozens of steps.
constexpr double kListSkinFraction = 0.05;

/// Below this many candidates both passes run serially: a parallel
/// region costs more than the work (an ensemble member has ~850
/// candidates, the 600-particle benchmark packing ~7,800).
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
  (void)assemble(system);
  // The matrix leaves the engine, so no list layout describes cached_
  // any more.
  drop_list();
  return {std::exchange(cached_, {}), last_stats_};
}

AssemblyResult AssemblyEngine::assemble_incremental(
    const ParticleSystem& system) {
  return {assemble(system), last_stats_};
}

const sparse::BcrsMatrix& AssemblyEngine::assemble(
    const ParticleSystem& system) {
  last_stats_ = {};
  const bool search = !has_list_ || pattern_expired(system);
  if (search) {
    search_candidates(system);
    last_stats_.pattern_rebuilt = true;
    OBS_COUNTER_ADD("assembly.pattern_rebuilds", 1);
  }
  const std::size_t n = system.size();
  const std::size_t count = cand_.size();
  const auto pos = system.positions();
  int threads = threads_ > 0 ? threads_ : util::max_threads();
  if (count < kThreadedMinCandidates) threads = 1;
  const auto for_each_candidate = [&](auto&& body) {
    util::parallel_for(threads, 0, static_cast<std::ptrdiff_t>(count),
                       [&](std::ptrdiff_t k) {
                         body(static_cast<std::size_t>(k));
                       });
  };

  // Pass 1: each recomputed candidate's activity and tensor, in its
  // own slot.
  const bool recompute_all = search || tolerance_ <= 0.0;
  if (recompute_all) {
    for_each_candidate([&](std::size_t k) {
      const auto [i, j] = cand_[k];
      compute_candidate(k, pos[static_cast<std::size_t>(i)],
                        pos[static_cast<std::size_t>(j)], system);
    });
    if (tolerance_ > 0.0) {
      for (std::size_t k = 0; k < count; ++k) {
        const auto [i, j] = cand_[k];
        cand_refs_[2 * k] = pos[static_cast<std::size_t>(i)];
        cand_refs_[2 * k + 1] = pos[static_cast<std::size_t>(j)];
      }
    }
  } else {
    const auto& box = system.box();
    std::atomic<std::size_t> dirty{0};
    for_each_candidate([&](std::size_t k) {
      const Vec3& x_i = pos[static_cast<std::size_t>(cand_[k].first)];
      const Vec3& x_j = pos[static_cast<std::size_t>(cand_[k].second)];
      Vec3& ref_i = cand_refs_[2 * k];
      Vec3& ref_j = cand_refs_[2 * k + 1];
      // Monotone per-pair drift: the references move only on a
      // recompute, so the drift keeps growing until it crosses the
      // tolerance; no intermediate call can forget a dirty pair.
      const double drift =
          box.min_image(x_i, ref_i).norm() + box.min_image(x_j, ref_j).norm();
      if (drift > tolerance_) {
        ref_i = x_i;
        ref_j = x_j;
        compute_candidate(k, x_i, x_j, system);
        ++dirty;
      }
    });
    last_stats_.pairs_dirty = dirty;
    last_stats_.blocks_reused = 2 * (count - last_stats_.pairs_dirty);
  }
  last_stats_.pairs_in_cutoff = count;
  last_stats_.pairs_active = static_cast<std::size_t>(
      std::count(cand_active_.begin(), cand_active_.end(), 1));
  if (recompute_all) last_stats_.pairs_dirty = last_stats_.pairs_active;
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
  reused_total_ += last_stats_.blocks_reused;
  OBS_COUNTER_ADD("assembly.pairs_dirty",
                  static_cast<std::int64_t>(last_stats_.pairs_dirty));
  if (tolerance_ > 0.0) {
    OBS_COUNTER_ADD("assembly.blocks_reused",
                    static_cast<std::int64_t>(last_stats_.blocks_reused));
  }
  return cached_;
}

void AssemblyEngine::search_candidates(const ParticleSystem& system) {
  const std::size_t n = system.size();
  if (tolerance_ <= 0.0) skin_ = kListSkinFraction * system.max_radius();
  const CellList cells(system, lubrication_cutoff_distance(
                                   system.max_radius(), params_.lubrication) +
                                   skin_);
  cand_.clear();
  cells.for_each_interacting_pair(
      params_.lubrication.max_gap_scaled, skin_, [&](const Pair& p) {
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
  if (tolerance_ > 0.0) cand_refs_.resize(2 * cand_.size());
  const auto pos = system.positions();
  pattern_refs_.assign(pos.begin(), pos.end());
  has_list_ = true;
  has_layout_ = false;
  ++epoch_;
  ++rebuilds_total_;
}

void AssemblyEngine::drop_list() {
  has_list_ = false;
  has_layout_ = false;
}

void AssemblyEngine::compute_candidate(std::size_t k, const Vec3& x_i,
                                       const Vec3& x_j,
                                       const ParticleSystem& system) {
  // The from-scratch enumeration's formulas term for term: any other
  // rounding (distance - a_i - a_j for the gap, say) moves the bits.
  const auto radii = system.radii();
  const auto i = static_cast<std::size_t>(cand_[k].first);
  const auto j = static_cast<std::size_t>(cand_[k].second);
  const Vec3 d = system.box().min_image(x_i, x_j);
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

AssemblyEngineState AssemblyEngine::export_state() const {
  // At tolerance 0 only the tolerance and the epoch mean anything.
  AssemblyEngineState state;
  state.tolerance = tolerance_;
  state.pattern_epoch = epoch_;
  if (tolerance_ <= 0.0) return state;
  state.skin = skin_;
  state.has_pattern = has_list_;
  if (has_list_) {
    state.pattern_refs = pattern_refs_;
    state.pair_refs = cand_refs_;
  }
  return state;
}

void AssemblyEngine::import_state(const AssemblyEngineState& state,
                                  const ParticleSystem& system) {
  tolerance_ = state.tolerance;
  skin_ = state.skin;
  drop_list();
  if (tolerance_ <= 0.0 || !state.has_pattern ||
      state.pattern_refs.size() != system.size()) {
    epoch_ = state.pattern_epoch;
    return;  // no list to restore; the next call searches
  }

  // Search again at the stored positions: the canonical order depends
  // on the positions alone, so every candidate lands where it was.
  search_candidates(sd::ParticleSystem(
      state.pattern_refs,
      std::vector<double>(system.radii().begin(), system.radii().end()),
      system.box()));
  epoch_ = state.pattern_epoch;  // the search bumped it; restore
  pattern_refs_ = state.pattern_refs;
  if (state.pair_refs.size() != cand_refs_.size()) {
    // State does not match this system (corrupt or foreign): degrade
    // to "no list" rather than resuming with wrong tensors.
    drop_list();
    return;
  }
  cand_refs_ = state.pair_refs;
  // Tensors are pure functions of the references; recomputing them
  // reproduces the exported cache bitwise.
  for (std::size_t k = 0; k < cand_.size(); ++k) {
    compute_candidate(k, cand_refs_[2 * k], cand_refs_[2 * k + 1], system);
  }
}

}  // namespace mrhs::sd
