// Abstract SPD linear operator used by all iterative methods.
//
// The solvers only ever need y = A x (single vector) and Y = A X
// (multivector, the GSPMV path); concrete operators wrap a BCRS matrix,
// a dense matrix (tests), or the distributed-matrix simulation.
#pragma once

#include <atomic>
#include <cstddef>
#include <span>

#include "sparse/bcrs.hpp"
#include "sparse/gspmv.hpp"
#include "sparse/multivector.hpp"

namespace mrhs::solver {

class LinearOperator {
 public:
  virtual ~LinearOperator() = default;

  /// Square dimension of the operator.
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// y = A x
  virtual void apply(std::span<const double> x, std::span<double> y) const = 0;

  /// Y = A X (block of x.cols() vectors).
  virtual void apply_block(const sparse::MultiVector& x,
                           sparse::MultiVector& y) const = 0;

  /// Traffic model of one apply with m right-hand sides: the minimum
  /// bytes it moves from memory and the flops it performs. Solvers add
  /// these into their obs byte/flop accumulators so obs::PerfLedger
  /// can attribute solve time against the machine roofline. Zero means
  /// "no model" (matrix-free or test operators) — the attribution then
  /// covers the solver's own vector algebra only.
  [[nodiscard]] virtual double apply_bytes(std::size_t /*m*/) const {
    return 0.0;
  }
  [[nodiscard]] virtual double apply_flops(std::size_t /*m*/) const {
    return 0.0;
  }

  /// Threads the applies run on. A solver runs its own vector passes
  /// on as many (sparse::pass_threads), so an operator built for one
  /// thread keeps the whole solve on its caller's thread.
  [[nodiscard]] virtual int threads() const { return 1; }

  /// Number of apply calls so far, weighted by vector count — i.e. the
  /// total number of (sparse matrix) x (one vector) products. This is
  /// what the paper counts when it reports solver cost in SPMVs.
  /// Relaxed atomics: one operator may serve concurrent solves (the
  /// applies themselves are read-only), and the count is a statistic
  /// with no ordering role.
  [[nodiscard]] long applications() const {
    return applications_.load(std::memory_order_relaxed);
  }
  void reset_application_count() {
    applications_.store(0, std::memory_order_relaxed);
  }

 protected:
  void count(long vectors) const {
    applications_.fetch_add(vectors, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<long> applications_{0};
};

/// LinearOperator view over a BCRS matrix via the GSPMV engine.
class BcrsOperator final : public LinearOperator {
 public:
  explicit BcrsOperator(const sparse::BcrsMatrix& a, int threads = 0,
                        sparse::GspmvKernel kernel = sparse::GspmvKernel::kAuto)
      : engine_(a, threads), kernel_(kernel) {}

  [[nodiscard]] std::size_t size() const override {
    return engine_.matrix().rows();
  }

  void apply(std::span<const double> x, std::span<double> y) const override {
    engine_.apply(x, y);
    count(1);
  }

  void apply_block(const sparse::MultiVector& x,
                   sparse::MultiVector& y) const override {
    engine_.apply(x, y, kernel_);
    count(static_cast<long>(x.cols()));
  }

  [[nodiscard]] double apply_bytes(std::size_t m) const override {
    return engine_.min_bytes(m);
  }
  [[nodiscard]] double apply_flops(std::size_t m) const override {
    return engine_.flops(m);
  }
  [[nodiscard]] int threads() const override { return engine_.threads(); }

  [[nodiscard]] const sparse::GspmvEngine& engine() const { return engine_; }

 private:
  sparse::GspmvEngine engine_;
  sparse::GspmvKernel kernel_;
};

}  // namespace mrhs::solver
