// Threading backend abstraction for the shared-memory kernels.
//
// Every parallel region in the codebase goes through this header
// instead of spelling `#pragma omp parallel` inline (mrhs_analyze
// `no-raw-omp` enforces it). Two backends implement the same contract:
//
//   * OpenMP (MRHS_USE_OPENMP=1, the default build): regions map to
//     `omp parallel`, which keeps the familiar runtime knobs
//     (OMP_NUM_THREADS, pinning) and the pooled worker threads.
//   * std::thread (MRHS_OPENMP=OFF, used by the `tsan` preset):
//     regions spawn plain threads. ThreadSanitizer instruments
//     pthread natively, so the *same kernel bodies* that run under
//     OpenMP in production are checked for data races without the
//     false positives of an uninstrumented libgomp (gcc's libgomp
//     barriers are invisible to TSan, which otherwise flags every
//     race-free `omp for` loop).
//
// The contract both backends honor:
//   * `fn` is invoked with tid in [0, n_threads); tid 0 runs on the
//     calling thread.
//   * All invocations complete before the call returns (full barrier
//     + happens-before edge, so writes made inside the region are
//     visible to the caller).
//   * `fn` must not throw: an exception escaping a worker terminates
//     the process under both backends.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <utility>

#if defined(MRHS_USE_OPENMP)
#include <omp.h>
#else
#include <thread>
#include <vector>
#endif

namespace mrhs::util {

/// Name of the active threading backend (build-time constant).
constexpr const char* parallel_backend() {
#if defined(MRHS_USE_OPENMP)
  return "openmp";
#else
  return "std-thread";
#endif
}

/// Default worker count: OMP_NUM_THREADS under OpenMP, the hardware
/// thread count otherwise. Always >= 1.
inline int max_threads() {
#if defined(MRHS_USE_OPENMP)
  return omp_get_max_threads();
#else
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
#endif
}

/// Number of logical processors visible to the process. Always >= 1.
inline int hardware_threads() {
#if defined(MRHS_USE_OPENMP)
  return omp_get_num_procs();
#else
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
#endif
}

/// Run `fn(tid)` on `n_threads` workers (tid in [0, n_threads)) and
/// wait for all of them. n_threads <= 1 runs inline on the caller.
///
/// Note the OpenMP runtime may deliver fewer workers than requested
/// (nested regions, OMP_DYNAMIC); `fn` must partition work by tid and
/// tolerate absent tids, exactly like an `omp parallel` body.
template <class Fn>
void parallel_regions(int n_threads, Fn&& fn) {
  if (n_threads <= 1) {
    fn(0);
    return;
  }
#if defined(MRHS_USE_OPENMP)
#pragma omp parallel num_threads(n_threads)
  { fn(omp_get_thread_num()); }
#else
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n_threads - 1));
  for (int tid = 1; tid < n_threads; ++tid) {
    workers.emplace_back([&fn, tid] { fn(tid); });
  }
  fn(0);
  for (std::thread& w : workers) w.join();
#endif
}

/// Statically-chunked parallel loop: `body(i)` for i in [begin, end),
/// split into one contiguous chunk per worker (the schedule every
/// bandwidth-bound kernel here wants: each thread streams one slab).
template <class Fn>
void parallel_for(int n_threads, std::ptrdiff_t begin, std::ptrdiff_t end,
                  Fn&& body) {
  const std::ptrdiff_t count = end - begin;
  if (count <= 0) return;
  if (n_threads <= 1) {
    for (std::ptrdiff_t i = begin; i < end; ++i) body(i);
    return;
  }
  const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(n_threads);
  const std::ptrdiff_t chunk = (count + n - 1) / n;
  parallel_regions(n_threads, [&](int tid) {
    const std::ptrdiff_t lo = begin + static_cast<std::ptrdiff_t>(tid) * chunk;
    const std::ptrdiff_t hi = lo + chunk < end ? lo + chunk : end;
    for (std::ptrdiff_t i = lo; i < hi; ++i) body(i);
  });
}

// ---- NUMA first-touch placement ------------------------------------
//
// On a first-touch kernel (Linux default), a page lands on the NUMA
// node of the first thread that writes it. The hot-path buffers
// (BcrsMatrix values, MultiVector payloads) are streamed by the GSPMV
// row partition — one contiguous slab per worker — so their *first*
// write must use the same static chunking, or a multi-socket run
// streams the whole matrix cross-socket forever. These helpers are
// that first write; util::NoInitAlignedVector keeps std::vector's
// constructor from touching the pages first.

/// Placement policy for the first-touch pass.
enum class Placement {
  /// Touch on the calling thread (the pre-dispatch legacy behavior;
  /// also what a serial context gets regardless of policy).
  kSerial,
  /// One contiguous slab per worker, matching parallel_for's static
  /// chunking and hence the GSPMV row partition. The default.
  kPartitioned,
  /// Round-robin pages across workers: the libnuma-free analogue of
  /// node-interleaved allocation, for buffers with no stable owner
  /// (shared scratch read by every worker).
  kInterleave,
};

namespace detail {
inline int placement_from_env() {
  const char* env = std::getenv("MRHS_PLACEMENT");
  if (env == nullptr || *env == '\0') {
    return static_cast<int>(Placement::kPartitioned);
  }
  if (std::strcmp(env, "serial") == 0) {
    return static_cast<int>(Placement::kSerial);
  }
  if (std::strcmp(env, "interleave") == 0) {
    return static_cast<int>(Placement::kInterleave);
  }
  return static_cast<int>(Placement::kPartitioned);
}

inline std::atomic<int>& placement_slot() {
  static std::atomic<int> value{placement_from_env()};
  return value;
}

/// Buffers below this many doubles are zeroed serially: a region spawn
/// costs more than touching a few pages, and sub-page buffers cannot
/// be placed anyway. 1 MiB.
inline constexpr std::size_t kFirstTouchMinDoubles = 128u * 1024u;

/// Page granule of the interleave pattern (4 KiB = 512 doubles).
inline constexpr std::size_t kInterleaveDoubles = 512;
}  // namespace detail

/// Active placement policy (MRHS_PLACEMENT=partitioned|interleave|
/// serial, latched on first use; set_placement overrides).
inline Placement placement() {
  return static_cast<Placement>(
      detail::placement_slot().load(std::memory_order_relaxed));
}

inline void set_placement(Placement p) {
  detail::placement_slot().store(static_cast<int>(p),
                                 std::memory_order_relaxed);
}

/// First-touch zero-fill: data[0..n) <- 0.0, pages touched according
/// to the active (or given) policy. Semantically identical to a plain
/// zero-fill — only the NUMA home of the pages differs — so callers
/// may treat it as `std::fill(data, data + n, 0.0)`.
inline void first_touch_zero(double* data, std::size_t n,
                             int n_threads = 0, Placement policy = placement()) {
  const int threads = n_threads > 0 ? n_threads : max_threads();
  if (threads <= 1 || n < detail::kFirstTouchMinDoubles ||
      policy == Placement::kSerial) {
    std::fill(data, data + n, 0.0);
    return;
  }
  if (policy == Placement::kInterleave) {
    parallel_regions(threads, [&](int tid) {
      const std::size_t stride = detail::kInterleaveDoubles;
      for (std::size_t page = static_cast<std::size_t>(tid) * stride;
           page < n; page += stride * static_cast<std::size_t>(threads)) {
        std::fill(data + page, data + std::min(page + stride, n), 0.0);
      }
    });
    return;
  }
  parallel_for(threads, 0, static_cast<std::ptrdiff_t>(n),
               [&](std::ptrdiff_t i) {
                 data[static_cast<std::size_t>(i)] = 0.0;
               });
}

/// First-touch copy: data[0..n) <- src[0..n), the copy itself doing
/// the placement (one pass, no separate zero). Same chunking contract
/// as first_touch_zero.
inline void first_touch_copy(double* data, const double* src, std::size_t n,
                             int n_threads = 0, Placement policy = placement()) {
  const int threads = n_threads > 0 ? n_threads : max_threads();
  if (threads <= 1 || n < detail::kFirstTouchMinDoubles ||
      policy == Placement::kSerial) {
    std::copy(src, src + n, data);
    return;
  }
  if (policy == Placement::kInterleave) {
    parallel_regions(threads, [&](int tid) {
      const std::size_t stride = detail::kInterleaveDoubles;
      for (std::size_t page = static_cast<std::size_t>(tid) * stride;
           page < n; page += stride * static_cast<std::size_t>(threads)) {
        const std::size_t hi = std::min(page + stride, n);
        std::copy(src + page, src + hi, data + page);
      }
    });
    return;
  }
  parallel_for(threads, 0, static_cast<std::ptrdiff_t>(n),
               [&](std::ptrdiff_t i) {
                 data[static_cast<std::size_t>(i)] =
                     src[static_cast<std::size_t>(i)];
               });
}

}  // namespace mrhs::util
