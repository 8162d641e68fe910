// Runtime ISA dispatch for the GSPMV block-row microkernels.
//
// The kernels in simd_kernels.hpp are compile-time gated on
// __AVX2__/__AVX512F__, so a single translation unit can only ever hold
// the variants its own -m flags enable. This seam compiles the same
// header three times — kernels_scalar.cpp (base flags),
// kernels_avx2.cpp (-mavx2 -mfma), kernels_avx512.cpp (-mavx512f) — so
// one release binary carries every variant the *compiler* supports,
// and picks among them once at runtime from what the *CPU* supports
// (cpuid via __builtin_cpu_supports). The kernels themselves are
// `static` in the header precisely so each variant TU owns a private
// copy: with external linkage the linker would keep one arbitrary
// copy, and an AVX-512-compiled body reached through the "scalar"
// table entry would fault on a machine without AVX-512.
//
// Each table entry is a whole *row-range* function, not a single
// block-row kernel: the indirect call is paid once per thread per
// apply, not once per block row, so dispatch adds nothing measurable
// to the hot loop.
//
// This is also the plug-in seam the ROADMAP marks for a future GPU
// backend: a device variant is one more KernelVariant whose block_rows
// launches instead of loops.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace mrhs::sparse::kernels {

/// Instruction sets a kernel variant can target, worst to best.
enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr std::size_t kIsaCount = 3;

[[nodiscard]] constexpr const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "scalar";
}

/// One dispatchable unit of GSPMV work: y rows [row_begin, row_end)
/// of Y(3 rows x m per block row) = A X, with A in BCRS form. The
/// callee zeroes and fully overwrites its y range; ranges from
/// distinct threads must be disjoint (they are: parts_ is a
/// partition).
using BlockRowsFn = void (*)(const double* values,
                             const std::int32_t* col_idx,
                             const std::int64_t* row_ptr,
                             std::size_t row_begin, std::size_t row_end,
                             const double* x, std::size_t m, double* y);

/// One entry of the dispatch table.
struct KernelVariant {
  Isa isa;
  const char* name;  ///< to_string(isa); stable for metrics/sidecars
  BlockRowsFn block_rows;
};

// Per-TU entry points (kernels_<isa>.cpp). Direct calls are forbidden
// outside src/sparse/ (mrhs_analyze `kernel-via-dispatch`); go through
// Dispatch or GspmvEngine.
void block_rows_scalar(const double* values, const std::int32_t* col_idx,
                       const std::int64_t* row_ptr, std::size_t row_begin,
                       std::size_t row_end, const double* x, std::size_t m,
                       double* y);
#if defined(MRHS_DISPATCH_AVX2)
void block_rows_avx2(const double* values, const std::int32_t* col_idx,
                     const std::int64_t* row_ptr, std::size_t row_begin,
                     std::size_t row_end, const double* x, std::size_t m,
                     double* y);
#endif
#if defined(MRHS_DISPATCH_AVX512)
void block_rows_avx512(const double* values, const std::int32_t* col_idx,
                       const std::int64_t* row_ptr, std::size_t row_begin,
                       std::size_t row_end, const double* x, std::size_t m,
                       double* y);
#endif

/// The probed-once dispatch table. instance() is a magic static: the
/// cpuid probe happens exactly once, thread-safely (the TSan round-trip
/// in thread_safety_test races first use deliberately).
class Dispatch {
 public:
  static const Dispatch& instance();

  /// The variant was compiled into this binary.
  [[nodiscard]] bool compiled(Isa isa) const {
    return table_[static_cast<std::size_t>(isa)].block_rows != nullptr;
  }
  /// The running CPU can execute the variant.
  [[nodiscard]] bool cpu_supports(Isa isa) const {
    return cpu_[static_cast<std::size_t>(isa)];
  }
  /// compiled && cpu_supports: the variant may actually run here.
  [[nodiscard]] bool available(Isa isa) const {
    return compiled(isa) && cpu_supports(isa);
  }

  /// Auto heuristic for an apply of width m: AVX-512 only once its
  /// 8-wide windows fill (m >= 8), else AVX2, else scalar.
  [[nodiscard]] Isa best(std::size_t m) const;

  /// The table entry for `isa`, degraded to the best available ISA at
  /// or below the request when `isa` itself cannot run here (a forced
  /// --kernel=avx512 on an AVX2 machine runs avx2, with a one-time
  /// stderr note). Never fails: scalar is always compiled and always
  /// supported.
  [[nodiscard]] const KernelVariant& variant(Isa isa) const;

  /// Resolve an auto-mode apply of width m: util::kernel_override()
  /// (the --kernel flag / MRHS_KERNEL) beats the best(m) heuristic.
  [[nodiscard]] const KernelVariant& select(std::size_t m) const;

  /// One-line summary for bench sidecars, e.g.
  /// "best=avx512 compiled=[scalar,avx2,avx512] cpu=[scalar,avx2,avx512]
  ///  override=auto".
  [[nodiscard]] std::string describe() const;

 private:
  Dispatch();

  KernelVariant table_[kIsaCount];
  bool cpu_[kIsaCount];
};

}  // namespace mrhs::sparse::kernels
