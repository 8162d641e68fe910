#include "sd/resistance.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "sd/effective_viscosity.hpp"
#include "util/parallel.hpp"

namespace mrhs::sd {

void ResistanceAssembler::assemble_full(const ParticleSystem& system,
                                        sparse::BcrsMatrix& out,
                                        AssemblyStats* stats) {
  const std::size_t n = system.size();
  const auto radii = system.radii();
  const double phi = params_.phi_override >= 0.0 ? params_.phi_override
                                                 : system.volume_fraction();

  AssemblyStats local{};
  local.min_scaled_gap = std::numeric_limits<double>::infinity();

  // Pass 1: gather active pair tensors and per-row degrees.
  const double cutoff =
      lubrication_cutoff_distance(system.max_radius(), params_.lubrication);
  const CellList cells(system, cutoff);

  // Refill the previous matrix's arrays: same-sized assemblies then
  // reuse their capacity instead of allocating anew.
  sparse::BcrsMatrix::Storage storage = out.release();
  pairs_.clear();
  std::vector<std::int64_t>& row_ptr = storage.row_ptr;
  row_ptr.assign(n + 1, 0);  // row_ptr[i+1] holds degree
  cells.for_each_interacting_pair(
      params_.lubrication.max_gap_scaled, [&](const Pair& p) {
        ++local.pairs_in_cutoff;
        if (!lubrication_active(p.gap, radii[p.i], radii[p.j],
                                params_.lubrication)) {
          return;
        }
        ++local.pairs_active;
        const double mean_radius = 0.5 * (radii[p.i] + radii[p.j]);
        local.min_scaled_gap =
            std::min(local.min_scaled_gap,
                     std::max(p.gap / mean_radius,
                              params_.lubrication.min_gap_scaled));
        PairRecord rec;
        rec.i = static_cast<std::int32_t>(p.i);
        rec.j = static_cast<std::int32_t>(p.j);
        lubrication_pair_tensor(p.unit, radii[p.i], radii[p.j], p.gap,
                                params_.lubrication,
                                std::span<double, 9>(rec.tensor));
        pairs_.push_back(rec);
        ++row_ptr[p.i + 1];
        ++row_ptr[p.j + 1];
      });
  if (local.pairs_active == 0) local.min_scaled_gap = 0.0;

  // Row pointers: every row additionally holds its diagonal block.
  for (std::size_t i = 0; i < n; ++i) row_ptr[i + 1] += 1 + row_ptr[i];

  const std::size_t nnzb = static_cast<std::size_t>(row_ptr[n]);
  std::vector<std::int32_t>& col_idx = storage.col_idx;
  col_idx.assign(nnzb, 0);
  // No-init storage + first-touch zero: the assembly passes below only
  // write the stored entries, so zero pages must exist, and placing
  // them here puts them where the GSPMV workers will stream them.
  util::NoInitAlignedVector<double>& values = storage.values;
  values.resize(nnzb * sparse::kBlockSize);
  util::first_touch_zero(values.data(), values.size());

  // Pass 2: place the diagonal blocks (far-field drag) at each row's
  // first slot, then append pair blocks via per-row cursors.
  cursor_.assign(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t slot = cursor_[i]++;
    col_idx[slot] = static_cast<std::int32_t>(i);
    double* blk = values.data() + slot * 9;
    const double drag =
        params_.include_far_field
            ? far_field_drag(radii[i], params_.viscosity, phi)
            : 0.0;
    blk[0] = blk[4] = blk[8] = drag;
  }
  for (const PairRecord& rec : pairs_) {
    // Relative-motion projection: [+T, -T; -T, +T].
    double* diag_i = values.data() + (row_ptr[rec.i]) * 9;
    double* diag_j = values.data() + (row_ptr[rec.j]) * 9;
    for (int k = 0; k < 9; ++k) {
      diag_i[k] += rec.tensor[k];
      diag_j[k] += rec.tensor[k];
    }
    const std::int64_t slot_ij = cursor_[rec.i]++;
    const std::int64_t slot_ji = cursor_[rec.j]++;
    col_idx[slot_ij] = rec.j;
    col_idx[slot_ji] = rec.i;
    double* off_ij = values.data() + slot_ij * 9;
    double* off_ji = values.data() + slot_ji * 9;
    for (int k = 0; k < 9; ++k) {
      off_ij[k] = -rec.tensor[k];
      off_ji[k] = -rec.tensor[k];
    }
  }

  // Pass 3: sort each row's off-diagonal slots by column (the diagonal
  // slot is first and already smallest-after-none ordering-wise only
  // if i is the smallest column — sort the whole row segment).
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t lo = row_ptr[i];
    const std::int64_t hi = row_ptr[i + 1];
    const std::size_t len = static_cast<std::size_t>(hi - lo);
    if (len <= 1) continue;
    // Order of columns in this row (scratch_order_ persists across
    // rows and calls to avoid per-row allocation).
    scratch_cols_.resize(len);
    scratch_order_.resize(len);
    for (std::size_t k = 0; k < len; ++k) {
      scratch_order_[k] = static_cast<std::int32_t>(k);
    }
    auto& order = scratch_order_;
    std::sort(order.begin(), order.end(),
              [&](std::int32_t a, std::int32_t b) {
                return col_idx[lo + a] < col_idx[lo + b];
              });
    scratch_vals_.resize(len * 9);
    for (std::size_t k = 0; k < len; ++k) {
      scratch_cols_[k] = col_idx[lo + order[k]];
      std::memcpy(scratch_vals_.data() + k * 9,
                  values.data() + (lo + order[k]) * 9, 9 * sizeof(double));
    }
    std::memcpy(col_idx.data() + lo, scratch_cols_.data(),
                len * sizeof(std::int32_t));
    std::memcpy(values.data() + lo * 9, scratch_vals_.data(),
                len * 9 * sizeof(double));
  }

  // A full rebuild recomputes every active pair tensor and reuses
  // nothing; epoch stamping is the engine's job.
  local.pairs_dirty = local.pairs_active;
  local.blocks_reused = 0;
  local.pattern_rebuilt = true;

  if (stats != nullptr) *stats = local;
  out = sparse::BcrsMatrix(n, n, std::move(row_ptr), std::move(col_idx),
                           std::move(values));
}

}  // namespace mrhs::sd
