// MultiVector: a block of m dense vectors of length n stored row-major
// (the m values for one row are contiguous). This is the layout the
// paper uses for GSPMV — "We store the m vectors in row-major format to
// take advantage of spatial locality" — and it is what lets the 3x3
// block kernel vectorize over the vector index.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "util/aligned.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mrhs::sparse {

// ---- Row blocks and column reductions -------------------------------
//
// One order fixes every per-column reduction over a MultiVector:
// col_dots, col_norms and the multi-RHS CG's passes. The rows split
// into blocks of kReduceRows. Each block sums its own rows, in row
// order, into a partial; the partials then add up serially in block
// order. A block always runs whole on one thread, so column j's sum
// depends only on its own entries and the row count: not on the
// width, the other columns or the number of threads.

/// Rows per reduction block.
inline constexpr std::size_t kReduceRows = 128;

/// Fewest entries (rows x cols) for which a row-block pass runs on
/// more than one thread; below it the passes run serially, over the
/// same blocks in the same order. Measured with the multi-RHS CG on a
/// 4-thread operator (4-core Xeon, 2 MiB L2 per core; random matrices
/// with 12 blocks per row, 300-6000 rows, m = 4, 8 and 16), time per
/// iteration threaded against serial: 1.2-3.1x up to 2.4k entries;
/// 0.8-1.03x at 3.6-7.2k, but 2.1x at 300 rows and m = 16; 0.58-1.0x
/// from 9.6k up, except 1.17x at 600 rows and m = 16 (five blocks for
/// four threads). 600 particles at m = 8 is 14.4k entries (0.77x).
inline constexpr std::size_t kThreadedPassMinEntries = 8192;

/// Reduction blocks covering `rows` rows (the last may be short).
[[nodiscard]] constexpr std::size_t reduce_blocks(std::size_t rows) {
  return (rows + kReduceRows - 1) / kReduceRows;
}

/// Threads for a row-block pass over rows x cols entries when the
/// caller owns `threads` (an operator's): 1 below
/// kThreadedPassMinEntries, and never more than one per block.
[[nodiscard]] int pass_threads(std::size_t rows, std::size_t cols,
                               int threads);

/// body(first_row, end_row, block) for every reduction block of
/// `rows`, on `threads` workers that each take one contiguous run of
/// blocks (threads <= 1 runs them all on the caller, in order).
template <class Fn>
void for_each_row_block(std::size_t rows, int threads, Fn&& body) {
  const std::size_t blocks = reduce_blocks(rows);
  auto run = [&](std::size_t first, std::size_t last) {
    for (std::size_t blk = first; blk < last; ++blk) {
      body(blk * kReduceRows, std::min(rows, (blk + 1) * kReduceRows), blk);
    }
  };
  if (threads <= 1) {
    run(0, blocks);
    return;
  }
  const auto workers = static_cast<std::size_t>(threads);
  util::parallel_regions(threads, [&](int tid) {
    const auto t = static_cast<std::size_t>(tid);
    run(blocks * t / workers, blocks * (t + 1) / workers);
  });
}

/// The blocked column reduction. body(first_row, end_row, partial)
/// adds one block's rows, in row order, into partial[0..cols), which
/// starts at zero; out[j] then sums the partials in block order.
/// `partials` holds reduce_blocks(rows) * out.size() doubles owned by
/// the caller, so a solver allocates them once, outside its loop.
template <class Fn>
void reduce_columns(std::size_t rows, int threads, std::span<double> partials,
                    std::span<double> out, Fn&& body) {
  const std::size_t cols = out.size();
  for_each_row_block(rows, threads,
                     [&](std::size_t first, std::size_t last, std::size_t blk) {
                       double* partial = partials.data() + blk * cols;
                       std::fill(partial, partial + cols, 0.0);
                       body(first, last, partial);
                     });
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t blk = 0; blk < reduce_blocks(rows); ++blk) {
    const double* partial = partials.data() + blk * cols;
    for (std::size_t j = 0; j < cols; ++j) out[j] += partial[j];
  }
}

class MultiVector {
 public:
  MultiVector() = default;
  /// Storage is sized uninitialized, then zeroed by the NUMA
  /// first-touch pass: the zero pages land with the workers that will
  /// stream them in GSPMV (util::Placement::kPartitioned matches the
  /// engine's static row chunking).
  MultiVector(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols) {
    util::first_touch_zero(data_.data(), data_.size());
  }

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }

  [[nodiscard]] double* data() { return data_.data(); }
  [[nodiscard]] const double* data() const { return data_.data(); }

  /// Contiguous slice holding row i (all m column values).
  [[nodiscard]] std::span<double> row(std::size_t i) {
    return {data_.data() + i * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  void set_zero() { std::fill(data_.begin(), data_.end(), 0.0); }

  /// Copy column j out to / in from a contiguous vector of length n.
  void copy_col_out(std::size_t j, std::span<double> out) const;
  void copy_col_in(std::size_t j, std::span<const double> in);

  /// Fill every entry with i.i.d. standard normal samples.
  void fill_normal(util::StreamRng& rng);

  /// this += alpha * x   (elementwise over the whole block)
  void axpy(double alpha, const MultiVector& x);

  /// this *= alpha
  void scale(double alpha);

  /// Per-column 2-norms; `out` has length cols(). Each column sums in
  /// the blocked order of reduce_columns.
  void col_norms(std::span<double> out) const;

  /// Per-column dot products  out[j] = sum_i this(i,j) * other(i,j),
  /// summed in the blocked order of reduce_columns: column j's value
  /// does not depend on the block's width or on the other columns.
  void col_dots(const MultiVector& other, std::span<double> out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  util::NoInitAlignedVector<double> data_;
};

/// Y = beta * Y + alpha * X  elementwise.
void axpby(double alpha, const MultiVector& x, double beta, MultiVector& y);

}  // namespace mrhs::sparse
