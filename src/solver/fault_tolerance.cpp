#include "solver/fault_tolerance.hpp"

#include <limits>

#include "obs/obs.hpp"

namespace mrhs::solver {

void FaultInjectingOperator::apply(std::span<const double> x,
                                   std::span<double> y) const {
  inner_->apply(x, y);
  if (!plan_.block_only && should_inject()) corrupt(y);
}

void FaultInjectingOperator::apply_block(const sparse::MultiVector& x,
                                         sparse::MultiVector& y) const {
  inner_->apply_block(x, y);
  if (should_inject()) {
    corrupt({y.data(), y.rows() * y.cols()});
  }
}

bool FaultInjectingOperator::should_inject() const {
  const long call = matching_calls_++;
  if (call < plan_.clean_applications) return false;
  if (plan_.faulty_applications >= 0 &&
      call - plan_.clean_applications >= plan_.faulty_applications) {
    return false;
  }
  ++injected_;
  OBS_COUNTER_ADD("fault_injection.injected", 1);
  return true;
}

void FaultInjectingOperator::corrupt(std::span<double> y) const {
  if (y.empty()) return;
  if (plan_.mode == FaultInjection::Mode::kNan) {
    y[y.size() / 2] = std::numeric_limits<double>::quiet_NaN();
    return;
  }
  // Deterministic multiplicative noise from a splitmix64 stream keyed
  // by (seed, injection index) — reproducible regardless of call
  // interleaving elsewhere.
  std::uint64_t s = plan_.seed + 0x9e3779b97f4a7c15ULL *
                                     static_cast<std::uint64_t>(injected_);
  for (double& v : y) {
    s += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    z ^= z >> 31;
    const double u =
        static_cast<double>(z >> 11) * 0x1.0p-53;  // uniform [0, 1)
    v *= 1.0 + plan_.perturb_scale * (2.0 * u - 1.0);
  }
}

}  // namespace mrhs::solver
