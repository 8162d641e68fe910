#include "sparse/multivector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace mrhs::sparse {

void MultiVector::copy_col_out(std::size_t j, std::span<double> out) const {
  if (j >= cols_ || out.size() != rows_) {
    throw std::invalid_argument("copy_col_out: shape mismatch");
  }
  for (std::size_t i = 0; i < rows_; ++i) out[i] = data_[i * cols_ + j];
}

void MultiVector::copy_col_in(std::size_t j, std::span<const double> in) {
  if (j >= cols_ || in.size() != rows_) {
    throw std::invalid_argument("copy_col_in: shape mismatch");
  }
  for (std::size_t i = 0; i < rows_; ++i) data_[i * cols_ + j] = in[i];
}

void MultiVector::fill_normal(util::StreamRng& rng) {
  rng.fill_normal({data_.data(), data_.size()});
}

void MultiVector::axpy(double alpha, const MultiVector& x) {
  if (x.rows_ != rows_ || x.cols_ != cols_) {
    throw std::invalid_argument("axpy: shape mismatch");
  }
  const std::size_t total = rows_ * cols_;
  const double* xv = x.data_.data();
  double* yv = data_.data();
#pragma omp simd
  for (std::size_t i = 0; i < total; ++i) yv[i] += alpha * xv[i];
}

void MultiVector::scale(double alpha) {
  for (double& v : data_) v *= alpha;
}

int pass_threads(std::size_t rows, std::size_t cols, int threads) {
  if (threads <= 1 || rows * cols < kThreadedPassMinEntries) return 1;
  return static_cast<int>(
      std::min(static_cast<std::size_t>(threads), reduce_blocks(rows)));
}

void MultiVector::col_norms(std::span<double> out) const {
  if (out.size() != cols_) {
    throw std::invalid_argument("col_norms: bad output size");
  }
  col_dots(*this, out);
  for (double& v : out) v = std::sqrt(v);
}

void MultiVector::col_dots(const MultiVector& other,
                           std::span<double> out) const {
  if (other.rows_ != rows_ || other.cols_ != cols_ || out.size() != cols_) {
    throw std::invalid_argument("col_dots: shape mismatch");
  }
  std::vector<double> partials(reduce_blocks(rows_) * cols_);
  reduce_columns(rows_, 1, partials, out,
                 [&](std::size_t first, std::size_t last, double* partial) {
                   for (std::size_t i = first; i < last; ++i) {
                     const double* a = data_.data() + i * cols_;
                     const double* b = other.data_.data() + i * cols_;
                     for (std::size_t j = 0; j < cols_; ++j) {
                       partial[j] += a[j] * b[j];
                     }
                   }
                 });
}

void axpby(double alpha, const MultiVector& x, double beta, MultiVector& y) {
  if (x.rows() != y.rows() || x.cols() != y.cols()) {
    throw std::invalid_argument("axpby: shape mismatch");
  }
  const std::size_t total = x.rows() * x.cols();
  const double* xv = x.data();
  double* yv = y.data();
#pragma omp simd
  for (std::size_t i = 0; i < total; ++i) yv[i] = beta * yv[i] + alpha * xv[i];
}

}  // namespace mrhs::sparse
