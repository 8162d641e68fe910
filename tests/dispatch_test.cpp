// Runtime kernel dispatch: forced-ISA variants must be bitwise
// identical to the generic kernel (the contract that makes
// --kernel=scalar a numerics-preserving debug switch), the override
// must round-trip through util::set_kernel_override, and first-touch
// placement policies must not change a single stored bit.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sparse/bcrs.hpp"
#include "sparse/gspmv.hpp"
#include "sparse/kernel_dispatch.hpp"
#include "sparse/multivector.hpp"
#include "util/kernel_override.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;
using sparse::kernels::Dispatch;
using sparse::kernels::Isa;

/// Restores the process-wide override (and MRHS_KERNEL has already
/// been latched by now), so tests can force ISAs without leaking.
class OverrideGuard {
 public:
  OverrideGuard() = default;
  ~OverrideGuard() { util::set_kernel_override("auto"); }
};

bool bitwise_equal(const sparse::MultiVector& a,
                   const sparse::MultiVector& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

/// Widths that hit full SIMD windows, remainder columns of every
/// residue, and the m == 1 shared-SpMV path.
const std::size_t kWidths[] = {1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17, 31, 32, 33};

sparse::GspmvKernel force_of(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return sparse::GspmvKernel::kForceScalar;
    case Isa::kAvx2: return sparse::GspmvKernel::kForceAvx2;
    case Isa::kAvx512: return sparse::GspmvKernel::kForceAvx512;
  }
  return sparse::GspmvKernel::kForceScalar;
}

class DispatchParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DispatchParity, ForcedIsaBitwiseMatchesReference) {
  const std::size_t m = GetParam();
  const auto a = sparse::make_random_bcrs(48, 6.0, 29);
  util::StreamRng rng(m + 1);
  sparse::MultiVector x(a.cols(), m), y_ref(a.rows(), m);
  x.fill_normal(rng);
  sparse::gspmv_reference(a, x, y_ref);

  const auto& dispatch = Dispatch::instance();
  const sparse::GspmvEngine engine(a, /*threads=*/1);
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    if (!dispatch.available(isa)) continue;  // forcing would degrade
    sparse::MultiVector y(a.rows(), m);
    engine.apply(x, y, force_of(isa));
    EXPECT_TRUE(bitwise_equal(y_ref, y))
        << "ISA " << sparse::kernels::to_string(isa)
        << " differs bitwise from the generic kernel at m = " << m;
  }
}

TEST_P(DispatchParity, AutoBitwiseMatchesReference) {
  const std::size_t m = GetParam();
  const auto a = sparse::make_random_bcrs(32, 4.0, 31);
  util::StreamRng rng(m + 7);
  sparse::MultiVector x(a.cols(), m), y_ref(a.rows(), m), y(a.rows(), m);
  x.fill_normal(rng);
  sparse::gspmv_reference(a, x, y_ref);
  const sparse::GspmvEngine engine(a, /*threads=*/1);
  engine.apply(x, y, sparse::GspmvKernel::kAuto);
  EXPECT_TRUE(bitwise_equal(y_ref, y)) << "auto pick differs at m = " << m;
}

INSTANTIATE_TEST_SUITE_P(Widths, DispatchParity,
                         ::testing::ValuesIn(kWidths));

TEST(Dispatch, ScalarIsAlwaysAvailable) {
  const auto& d = Dispatch::instance();
  EXPECT_TRUE(d.compiled(Isa::kScalar));
  EXPECT_TRUE(d.cpu_supports(Isa::kScalar));
  EXPECT_TRUE(d.available(Isa::kScalar));
  EXPECT_NE(d.variant(Isa::kScalar).block_rows, nullptr);
}

TEST(Dispatch, BestRespectsAvailability) {
  const auto& d = Dispatch::instance();
  for (std::size_t m : {std::size_t{2}, std::size_t{8}, std::size_t{32}}) {
    EXPECT_TRUE(d.available(d.best(m)));
  }
}

TEST(Dispatch, VariantDegradesToRunnableIsa) {
  const auto& d = Dispatch::instance();
  // Whatever is asked for, the returned entry must be runnable here.
  for (Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kAvx512}) {
    const auto& v = d.variant(isa);
    EXPECT_TRUE(d.available(v.isa));
    EXPECT_NE(v.block_rows, nullptr);
  }
}

TEST(Dispatch, DescribeMentionsEveryCompiledIsa) {
  const auto& d = Dispatch::instance();
  const std::string text = d.describe();
  EXPECT_NE(text.find("best="), std::string::npos);
  EXPECT_NE(text.find("scalar"), std::string::npos);
  if (d.compiled(Isa::kAvx2)) {
    EXPECT_NE(text.find("avx2"), std::string::npos);
  }
}

TEST(Dispatch, OverrideRoundTrip) {
  OverrideGuard guard;
  ASSERT_TRUE(util::set_kernel_override("scalar"));
  EXPECT_EQ(util::kernel_override(), util::KernelIsaOverride::kScalar);
  const auto& d = Dispatch::instance();
  // With a scalar override, every width selects the scalar entry.
  EXPECT_EQ(d.select(16).isa, Isa::kScalar);
  EXPECT_EQ(d.select(2).isa, Isa::kScalar);

  ASSERT_TRUE(util::set_kernel_override("auto"));
  EXPECT_EQ(util::kernel_override(), util::KernelIsaOverride::kAuto);
  EXPECT_EQ(d.select(16).isa, d.best(16));

  EXPECT_FALSE(util::set_kernel_override("sse9"));
  // A rejected value must leave the override untouched.
  EXPECT_EQ(util::kernel_override(), util::KernelIsaOverride::kAuto);
}

TEST(Dispatch, ForcedOverrideChangesNoBits) {
  OverrideGuard guard;
  const std::size_t m = 12;
  const auto a = sparse::make_random_bcrs(40, 5.0, 37);
  util::StreamRng rng(3);
  sparse::MultiVector x(a.cols(), m), y_auto(a.rows(), m),
      y_forced(a.rows(), m);
  x.fill_normal(rng);
  const sparse::GspmvEngine engine(a, /*threads=*/1);
  engine.apply(x, y_auto, sparse::GspmvKernel::kAuto);
  ASSERT_TRUE(util::set_kernel_override("scalar"));
  engine.apply(x, y_forced, sparse::GspmvKernel::kAuto);
  EXPECT_TRUE(bitwise_equal(y_auto, y_forced));
}

TEST(Placement, PoliciesProduceIdenticalBits) {
  // First-touch placement decides which core's memory holds a page,
  // never what the page contains: every policy must yield the same
  // values for the same build.
  const std::size_t n = 300 * 1024;  // above the serial threshold
  std::vector<double> src(n);
  util::StreamRng rng(17);
  for (auto& v : src) v = rng.normal();

  for (auto policy : {util::Placement::kSerial, util::Placement::kPartitioned,
                      util::Placement::kInterleave}) {
    util::NoInitAlignedVector<double> zeroed(n);
    util::first_touch_zero(zeroed.data(), n, /*n_threads=*/4, policy);
    for (std::size_t i = 0; i < n; i += 4097) {
      ASSERT_EQ(zeroed[i], 0.0) << "policy left garbage at " << i;
    }

    util::NoInitAlignedVector<double> copied(n);
    util::first_touch_copy(copied.data(), src.data(), n, /*n_threads=*/4,
                           policy);
    EXPECT_EQ(std::memcmp(copied.data(), src.data(), n * sizeof(double)), 0);
  }
}

TEST(Placement, EnvRoundTrip) {
  const auto before = util::placement();
  util::set_placement(util::Placement::kInterleave);
  EXPECT_EQ(util::placement(), util::Placement::kInterleave);
  util::set_placement(before);
}

}  // namespace
