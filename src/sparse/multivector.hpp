// MultiVector: a block of m dense vectors of length n stored row-major
// (the m values for one row are contiguous). This is the layout the
// paper uses for GSPMV — "We store the m vectors in row-major format to
// take advantage of spatial locality" — and it is what lets the 3x3
// block kernel vectorize over the vector index.
#pragma once

#include <cstddef>
#include <span>

#include "util/aligned.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace mrhs::sparse {

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

  /// Per-column 2-norms; `out` has length cols(). Like col_dots, each
  /// column sums in row order, independent of the other columns.
  void col_norms(std::span<double> out) const;

  /// Per-column dot products  out[j] = sum_i this(i,j) * other(i,j),
  /// summed in row order: column j's value does not depend on the
  /// block's width or on the other columns.
  void col_dots(const MultiVector& other, std::span<double> out) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  util::NoInitAlignedVector<double> data_;
};

/// Y = beta * Y + alpha * X  elementwise.
void axpby(double alpha, const MultiVector& x, double beta, MultiVector& y);

}  // namespace mrhs::sparse
