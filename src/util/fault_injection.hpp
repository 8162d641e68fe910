// Deterministic chaos-injection registry.
//
// Production resilience code is only trustworthy if its failure paths
// run; this registry lets tests and the CLI *arm* named fault sites
// that the product code declares with two macros:
//
//   MRHS_FAULT_POINT(site, data, n)   poison one double of data[0..n)
//                                     with a NaN when the site fires
//   MRHS_FAULT_FIRED(site)            bool: custom corruption at the
//                                     call site (truncate a write,
//                                     teleport a particle, ...)
//
// Arming is schedule-based and fully deterministic: a fault fires on a
// specific hit count of its site (`site@k`, the k-th time execution
// reaches the site, 0-based) or per-hit with a counter-keyed
// probability (`site@p=0.05`), where the decision RNG is StreamRng
// keyed by (seed, hit index) — the same chaos run reproduces
// bit-for-bit from its seed. Fires are bounded (`:xN`, default once)
// unless made sticky (`:sticky`).
//
// Zero overhead when disabled: with MRHS_FAULTS 0 (any build with
// NDEBUG unless -DMRHS_FAULTS=ON; mirrors MRHS_CONTRACTS), the macros
// compile to nothing — operands stay in an unevaluated context so the
// expressions cannot bit-rot — and the registry implementation is not
// compiled at all, so Release binaries carry no fault symbols. Debug
// and the sanitizer presets compile the sites in; until a fault is
// armed each site costs one relaxed atomic load.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.hpp"

#if !defined(MRHS_FAULTS)
#if defined(MRHS_FORCE_FAULTS)
#define MRHS_FAULTS 1
#elif defined(NDEBUG)
#define MRHS_FAULTS 0
#else
#define MRHS_FAULTS 1
#endif
#endif

namespace mrhs::util {

/// Documented injection sites. mrhs_analyze checks that every
/// MRHS_FAULT_POINT / MRHS_FAULT_FIRED call site names one of these
/// (as a string literal), and arm() rejects anything not listed, so
/// the table cannot drift from the code.
///
///   gspmv.apply.nan            poison one entry of a GSPMV result
///                              block (models a flipped FP bit /
///                              kernel bug mid-solve)
///   cluster.halo.corrupt       corrupt a received ghost block in the
///                              distributed GSPMV (models a bad NIC /
///                              truncated message); caught by the halo
///                              checksum and retried
///   checkpoint.write.truncate  drop the tail of a checkpoint write
///                              (models a full disk / killed process);
///                              caught by the CRC trailer on load
///   stepper.position.nan       poison one particle coordinate after a
///                              completed step (models upstream state
///                              corruption the solver never sees)
///   stepper.position.overlap   teleport one particle into its
///                              neighbor after a completed step (a
///                              finite but unphysical configuration)
///   ensemble.member.rhs.nan    poison one ensemble member's packed
///                              noise column before the shared block
///                              Chebyshev (models per-member RHS
///                              corruption); caught by the pack-stage
///                              firewall, contained to that member
///   ensemble.journal.torn      tear a job-journal append mid-record
///                              (models a crash between write and
///                              flush); the CRC frame makes the torn
///                              tail detectable and discardable
///   ensemble.queue.overflow    force a job submission to take the
///                              bounded-queue overflow path (an
///                              explicit `rejected`, never a silent
///                              drop)
inline constexpr std::string_view kFaultSites[] = {
    "gspmv.apply.nan",
    "cluster.halo.corrupt",
    "checkpoint.write.truncate",
    "stepper.position.nan",
    "stepper.position.overlap",
    "ensemble.member.rhs.nan",
    "ensemble.journal.torn",
    "ensemble.queue.overflow",
};

[[nodiscard]] constexpr bool is_known_fault_site(std::string_view site) {
  for (const auto known : kFaultSites) {
    if (site == known) return true;
  }
  return false;
}

/// One armed fault: where and when to fire.
struct FaultSpec {
  std::string site;
  /// Fire on this hit index (0-based) of the site; ignored when
  /// `probability` >= 0.
  std::uint64_t at_hit = 0;
  /// When >= 0: fire each hit with this probability, decided by a
  /// StreamRng keyed on (seed, hit index) — deterministic per seed.
  double probability = -1.0;
  /// Total fires allowed; -1 = unlimited (a sticky/persistent fault).
  long max_fires = 1;
  std::uint64_t seed = 0x5eedULL;
};

/// Parse a comma-separated fault schedule:
///
///   <site>@<hit>[:sticky|:xN][,...]      fire at the given hit index
///   <site>@p=<prob>[:sticky|:xN][,...]   fire per hit with probability
///
/// e.g. "stepper.position.nan@9,cluster.halo.corrupt@p=0.1:sticky".
/// Unknown sites and malformed schedules are errors (a chaos run that
/// silently arms nothing would pass vacuously).
[[nodiscard]] Status parse_fault_specs(std::string_view text,
                                       std::uint64_t seed,
                                       std::vector<FaultSpec>& out);

#if MRHS_FAULTS

/// Process-wide registry of armed faults. Thread-safe: sites may sit
/// in code reached from worker threads; decisions are serialized under
/// a mutex (fault builds are Debug/sanitizer builds — the fast path
/// for un-armed registries is a single relaxed atomic).
class FaultRegistry {
 public:
  static FaultRegistry& instance();

  /// Arm a fault. Rejects unknown sites and invalid schedules.
  [[nodiscard]] Status arm(const FaultSpec& spec);
  /// Disarm everything and zero all hit/fire counters.
  void reset();

  /// True when at least one fault is armed (relaxed; the macro gate).
  [[nodiscard]] bool any_armed() const {
    return armed_.load(std::memory_order_relaxed) != 0;
  }

  /// Count a hit of `site`; true when an armed fault fires on it.
  [[nodiscard]] bool fire(std::string_view site);
  /// fire() + poison one element of data[0..n) with a quiet NaN; the
  /// element index comes from the decision RNG, so it reproduces from
  /// the seed. Returns true when it fired.
  bool corrupt_nan(std::string_view site, double* data, std::size_t n);

  /// Hits / fires observed so far for a site (0 if never hit).
  [[nodiscard]] std::uint64_t hits(std::string_view site) const;
  [[nodiscard]] std::uint64_t fires(std::string_view site) const;

 private:
  FaultRegistry();
  ~FaultRegistry();
  FaultRegistry(const FaultRegistry&) = delete;
  FaultRegistry& operator=(const FaultRegistry&) = delete;

  struct Impl;
  Impl* impl_;
  std::atomic<int> armed_{0};
};

#endif  // MRHS_FAULTS

/// ObsCli-style helper: registers the chaos flags on an ArgParser and
/// arms the registry after parsing.
///
///   util::FaultCli fault_cli;
///   fault_cli.add_to(args);
///   args.parse(argc, argv);
///   if (auto s = fault_cli.apply(); !s.is_ok()) { ... exit ... }
///
/// --faults SPEC      schedule, see parse_fault_specs()
/// --fault-seed N     seed for probability schedules and poison targets
///
/// In builds without MRHS_FAULTS the flags still parse, but a
/// non-empty --faults is an error: a chaos run must never silently
/// run fault-free.
class FaultCli {
 public:
  void add_to(class ArgParser& args);
  [[nodiscard]] Status apply() const;

  [[nodiscard]] const std::string& faults() const { return faults_; }
  [[nodiscard]] bool armed_any() const { return !faults_.empty(); }

 private:
  std::string faults_;
  std::int64_t seed_ = 0x5eed;
};

}  // namespace mrhs::util

#if MRHS_FAULTS

#define MRHS_FAULT_POINT(site, data, n)                                   \
  do {                                                                    \
    if (::mrhs::util::FaultRegistry::instance().any_armed()) {            \
      ::mrhs::util::FaultRegistry::instance().corrupt_nan((site), (data), \
                                                          (n));           \
    }                                                                     \
  } while (0)

#define MRHS_FAULT_FIRED(site)                             \
  (::mrhs::util::FaultRegistry::instance().any_armed() &&  \
   ::mrhs::util::FaultRegistry::instance().fire((site)))

#else  // !MRHS_FAULTS — sites compile to nothing.

// sizeof keeps the operands in an unevaluated context (same pattern as
// the contracts macros): the expressions must still compile, but no
// code runs, no registry symbol is referenced, and the optimizer sees
// a constant.
#define MRHS_FAULT_POINT(site, data, n) \
  static_cast<void>(sizeof((site), (data), (n)))

#define MRHS_FAULT_FIRED(site) (static_cast<void>(sizeof(site)), false)

#endif  // MRHS_FAULTS
