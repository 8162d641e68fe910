// Preconditioners for the SD solves.
//
// The paper runs plain CG; production SD codes usually add at least a
// block-Jacobi preconditioner (invert each particle's 3x3 diagonal
// block). It composes with the MRHS idea unchanged — each column of
// the augmented solve just becomes a preconditioned CG — and the
// ablation bench quantifies what it buys on crowded systems.
#pragma once

#include <cstddef>
#include <span>

#include "sparse/bcrs.hpp"
#include "sparse/multivector.hpp"
#include "util/aligned.hpp"

namespace mrhs::solver {

class Preconditioner {
 public:
  virtual ~Preconditioner() = default;
  [[nodiscard]] virtual std::size_t size() const = 0;
  /// z = M^{-1} r
  virtual void apply(std::span<const double> r, std::span<double> z) const = 0;
  /// Z = M^{-1} R column-block-wise.
  virtual void apply_block(const sparse::MultiVector& r,
                           sparse::MultiVector& z) const = 0;
};

/// Identity (no preconditioning).
class IdentityPreconditioner final : public Preconditioner {
 public:
  explicit IdentityPreconditioner(std::size_t n) : n_(n) {}
  [[nodiscard]] std::size_t size() const override { return n_; }
  void apply(std::span<const double> r, std::span<double> z) const override;
  void apply_block(const sparse::MultiVector& r,
                   sparse::MultiVector& z) const override;

 private:
  std::size_t n_;
};

/// Block-Jacobi: per block row, the explicit inverse of the 3x3
/// diagonal block (SD diagonal blocks are SPD: drag + lubrication
/// projections).
class BlockJacobiPreconditioner final : public Preconditioner {
 public:
  explicit BlockJacobiPreconditioner(const sparse::BcrsMatrix& a);

  [[nodiscard]] std::size_t size() const override { return 3 * blocks_; }
  void apply(std::span<const double> r, std::span<double> z) const override;
  void apply_block(const sparse::MultiVector& r,
                   sparse::MultiVector& z) const override;

  /// The 9 doubles of inverse block i (row-major) — for tests.
  [[nodiscard]] std::span<const double, 9> inverse_block(
      std::size_t i) const {
    return std::span<const double, 9>(inverses_.data() + 9 * i, 9);
  }

 private:
  std::size_t blocks_ = 0;
  util::AlignedVector<double> inverses_;
};

}  // namespace mrhs::solver
