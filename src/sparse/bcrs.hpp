// Block Compressed Row Storage with 3x3 blocks.
//
// This is the paper's production format: Stokesian dynamics resistance
// matrices couple 3 translational degrees of freedom per particle, so
// every nonzero is naturally a 3x3 tile. Storage matches the paper:
//   - `values`  : nnzb blocks, each 9 doubles row-major, stored row-wise
//   - `col_idx` : block-column index of each block
//   - `row_ptr` : offsets of each block row
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/aligned.hpp"

namespace mrhs::dense {
class Matrix;
}

namespace mrhs::sparse {

class CsrMatrix;

inline constexpr std::size_t kBlockDim = 3;
inline constexpr std::size_t kBlockSize = kBlockDim * kBlockDim;

class BcrsMatrix {
 public:
  BcrsMatrix() = default;
  /// Primary constructor: takes ownership of no-init storage whose
  /// pages the producer already placed (util::first_touch_zero/copy).
  BcrsMatrix(std::size_t block_rows, std::size_t block_cols,
             std::vector<std::int64_t> row_ptr,
             std::vector<std::int32_t> col_idx,
             util::NoInitAlignedVector<double> values);
  /// Convenience overload for producers holding plain aligned storage;
  /// re-places the values via a first-touch copy (one extra pass).
  BcrsMatrix(std::size_t block_rows, std::size_t block_cols,
             std::vector<std::int64_t> row_ptr,
             std::vector<std::int32_t> col_idx,
             util::AlignedVector<double> values);

  /// Scalar dimensions.
  [[nodiscard]] std::size_t rows() const { return block_rows_ * kBlockDim; }
  [[nodiscard]] std::size_t cols() const { return block_cols_ * kBlockDim; }
  /// Block dimensions (nb in the paper).
  [[nodiscard]] std::size_t block_rows() const { return block_rows_; }
  [[nodiscard]] std::size_t block_cols() const { return block_cols_; }
  /// Stored scalar nonzeros (nnz) and nonzero blocks (nnzb).
  [[nodiscard]] std::size_t nnz() const { return values_.size(); }
  [[nodiscard]] std::size_t nnzb() const { return col_idx_.size(); }
  /// Average number of nonzero blocks per block row — the key matrix
  /// parameter in the paper's performance model (nnzb/nb).
  [[nodiscard]] double blocks_per_row() const {
    return block_rows_ == 0
               ? 0.0
               : static_cast<double>(nnzb()) / static_cast<double>(block_rows_);
  }

  [[nodiscard]] std::span<const std::int64_t> row_ptr() const {
    return row_ptr_;
  }
  [[nodiscard]] std::span<const std::int32_t> col_idx() const {
    return col_idx_;
  }
  [[nodiscard]] std::span<const double> values() const { return values_; }
  [[nodiscard]] std::span<double> values() { return values_; }

  /// Pointer to the 9 values of stored block p.
  [[nodiscard]] const double* block(std::size_t p) const {
    return values_.data() + p * kBlockSize;
  }
  [[nodiscard]] double* block(std::size_t p) {
    return values_.data() + p * kBlockSize;
  }

  /// The three arrays, handed back so an assembler can refill them and
  /// keep their capacity (a fresh matrix per assembly would churn the
  /// heap). Leaves this matrix empty.
  struct Storage {
    std::vector<std::int64_t> row_ptr;
    std::vector<std::int32_t> col_idx;
    util::NoInitAlignedVector<double> values;
  };
  [[nodiscard]] Storage release() {
    Storage s{std::move(row_ptr_), std::move(col_idx_), std::move(values_)};
    *this = BcrsMatrix();
    return s;
  }

  /// True when `other` stores exactly the same block sparsity pattern
  /// (dimensions, row_ptr, col_idx); values are not compared. Pattern
  /// reuse across assemblies is asserted with this in tests.
  [[nodiscard]] bool same_pattern(const BcrsMatrix& other) const {
    return block_rows_ == other.block_rows_ &&
           block_cols_ == other.block_cols_ && row_ptr_ == other.row_ptr_ &&
           col_idx_ == other.col_idx_;
  }

  /// Bytes touched when streaming the matrix once (values + indices);
  /// used by the bandwidth accounting in the perf model and Table II.
  [[nodiscard]] std::size_t matrix_bytes() const {
    return values_.size() * sizeof(double) +
           col_idx_.size() * sizeof(std::int32_t) +
           row_ptr_.size() * sizeof(std::int64_t);
  }

  /// Scalar CSR copy of the same matrix.
  [[nodiscard]] CsrMatrix to_csr() const;

  /// Dense copy (tests only; throws above 4096 scalar rows).
  [[nodiscard]] dense::Matrix to_dense() const;

  /// Largest |A - A^T| entry (matrix must be square).
  [[nodiscard]] double asymmetry() const;

  /// Copies of the diagonal 3x3 blocks (identity-padded where a block
  /// row has no stored diagonal block). Used by block-Jacobi scaling.
  [[nodiscard]] util::AlignedVector<double> diagonal_blocks() const;

 private:
  std::size_t block_rows_ = 0;
  std::size_t block_cols_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int32_t> col_idx_;
  util::NoInitAlignedVector<double> values_;
};

/// Accumulating 3x3-block coordinate builder; duplicate blocks are
/// summed and block rows are sorted by block column.
class BcrsBuilder {
 public:
  BcrsBuilder(std::size_t block_rows, std::size_t block_cols);

  /// Add (sum) a 3x3 block at block coordinates (brow, bcol);
  /// `block` is 9 doubles row-major.
  void add_block(std::size_t brow, std::size_t bcol,
                 std::span<const double, kBlockSize> block);

  /// Add `value` to the diagonal of the (brow, brow) block.
  void add_scaled_identity(std::size_t brow, double value);

  [[nodiscard]] std::size_t block_count() const { return entries_.size(); }

  [[nodiscard]] BcrsMatrix build() const;

 private:
  struct Entry {
    std::int64_t brow;
    std::int32_t bcol;
    double block[kBlockSize];
  };
  std::size_t block_rows_;
  std::size_t block_cols_;
  std::vector<Entry> entries_;
};

/// Convert a scalar CSR matrix (dimensions divisible by 3) to BCRS.
BcrsMatrix csr_to_bcrs(const CsrMatrix& csr);

/// Random block-sparse SPD-ish test matrix: `blocks_per_row` off-diagonal
/// blocks per block row plus a dominant diagonal. Deterministic in seed.
/// Used by kernel tests and the synthetic benchmark sweeps.
BcrsMatrix make_random_bcrs(std::size_t block_rows, double blocks_per_row,
                            std::uint64_t seed, bool symmetric = true,
                            double diagonal_boost = 1.0);

}  // namespace mrhs::sparse
