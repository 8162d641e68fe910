// Fault injection for the multi-RHS solve.
//
// The augmented solve needs no recovery ladder: every column of
// block_conjugate_gradient runs its own recurrence, so a breakdown or
// a non-finite value stops only its own column (a Krylov space shared
// across columns would let one NaN poison them all; Krasnopolsky,
// arXiv:1907.12874). What a failed solve costs is the caller's
// policy: the MRHS stepper and the ensemble runner drop the guesses
// and solve every step from a zero guess. This header keeps the
// deterministic fault injector that exercises that policy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "solver/operator.hpp"
#include "sparse/multivector.hpp"

namespace mrhs::solver {

/// Test-only operator wrapper that injects deterministic faults into a
/// healthy LinearOperator: NaN poisoning (models a hard numerical
/// breakdown) or a small multiplicative perturbation (models a
/// noisy/stagnating operator that keeps CG above a tight tolerance).
struct FaultInjection {
  enum class Mode : std::uint8_t { kNan, kPerturb };
  Mode mode = Mode::kNan;
  /// Number of (matching) applications that run clean before faults
  /// start.
  long clean_applications = 0;
  /// Number of faulty applications after the trigger; < 0 means every
  /// application from the trigger on (a sticky fault).
  long faulty_applications = 1;
  /// Restrict injection to block applications (apply_block), the path
  /// of the augmented solve; single-vector applies stay clean.
  bool block_only = true;
  /// Relative amplitude for kPerturb.
  double perturb_scale = 1e-5;
  std::uint64_t seed = 0x5eed;
};

class FaultInjectingOperator final : public LinearOperator {
 public:
  FaultInjectingOperator(const LinearOperator& inner, FaultInjection plan)
      : inner_(&inner), plan_(plan) {}

  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  void apply(std::span<const double> x, std::span<double> y) const override;
  void apply_block(const sparse::MultiVector& x,
                   sparse::MultiVector& y) const override;

  [[nodiscard]] double apply_bytes(std::size_t m) const override {
    return inner_->apply_bytes(m);
  }
  [[nodiscard]] double apply_flops(std::size_t m) const override {
    return inner_->apply_flops(m);
  }
  [[nodiscard]] int threads() const override { return inner_->threads(); }

  /// Faults injected so far.
  [[nodiscard]] long injected() const { return injected_; }

 private:
  [[nodiscard]] bool should_inject() const;
  void corrupt(std::span<double> y) const;

  const LinearOperator* inner_;
  FaultInjection plan_;
  mutable long matching_calls_ = 0;
  mutable long injected_ = 0;
};

}  // namespace mrhs::solver
