// LinearOperator view over the partitioned (simulated multi-node)
// GSPMV: the full solver stack — CG, multi-RHS CG, Chebyshev — runs
// unchanged on top of the distributed substrate, which is exactly how
// the paper's cluster experiments compose (the MRHS algorithm is
// agnostic to where the matrix lives).
#pragma once

#include <limits>

#include "cluster/distributed_gspmv.hpp"
#include "solver/operator.hpp"

namespace mrhs::cluster {

class DistributedOperator final : public solver::LinearOperator {
 public:
  DistributedOperator(const sparse::BcrsMatrix& a, const Partition& partition)
      : rows_(a.rows()), dist_(a, partition) {}

  [[nodiscard]] std::size_t size() const override { return rows_; }

  void apply(std::span<const double> x, std::span<double> y) const override {
    // Route the single vector through the multivector path (m = 1).
    sparse::MultiVector xm(rows_, 1), ym(rows_, 1);
    xm.copy_col_in(0, x);
    record(dist_.apply(xm, ym), ym);
    ym.copy_col_out(0, y);
    count(1);
  }

  void apply_block(const sparse::MultiVector& x,
                   sparse::MultiVector& y) const override {
    record(dist_.apply(x, y), y);
    count(static_cast<long>(x.cols()));
  }

  [[nodiscard]] const DistributedGspmv& gspmv() const { return dist_; }

  /// First halo-integrity failure observed, ok() if none. The
  /// LinearOperator interface cannot return errors, so a failed apply
  /// poisons its product with NaN (tripping the solver's breakdown
  /// detection on the very next dot product) and parks the Status
  /// here for the caller to surface — never a silently wrong product.
  [[nodiscard]] const util::Status& last_error() const { return error_; }

 private:
  void record(util::Status status, sparse::MultiVector& y) const {
    if (status.is_ok()) return;
    if (error_.is_ok()) error_ = std::move(status);
    double* data = y.data();
    const std::size_t total = y.rows() * y.cols();
    for (std::size_t i = 0; i < total; ++i) {
      data[i] = std::numeric_limits<double>::quiet_NaN();
    }
  }

  std::size_t rows_;
  DistributedGspmv dist_;
  mutable util::Status error_;
};

}  // namespace mrhs::cluster
