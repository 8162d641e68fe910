// Measured GSPMV timings on real matrices: the experimental side of
// Figures 2–4 and Table II.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sparse/bcrs.hpp"

namespace mrhs::perf {

/// Median-of-repetitions wall time of one GSPMV with m vectors.
[[nodiscard]] double measure_gspmv_seconds(const sparse::BcrsMatrix& a,
                                           std::size_t m, int threads = 0,
                                           double min_seconds = 0.05);

struct RelativeTimePoint {
  std::size_t m = 1;
  double seconds = 0.0;
  double relative = 1.0;  // seconds / seconds(m = 1)
};

/// Measure r(m) for each m in `m_values` (m = 1 is measured as the
/// baseline whether or not it appears in the list). The widths take
/// turns over several rounds of min_seconds / rounds each; every
/// width keeps its fastest round.
[[nodiscard]] std::vector<RelativeTimePoint> measure_relative_time(
    const sparse::BcrsMatrix& a, std::span<const std::size_t> m_values,
    int threads = 0, double min_seconds = 0.05);

struct SpmvThroughput {
  double seconds = 0.0;
  double gbytes_per_sec = 0.0;  // effective bandwidth, minimum-traffic
  double gflops = 0.0;
};

/// Table II: single-vector SPMV throughput on matrix `a`.
[[nodiscard]] SpmvThroughput measure_spmv_throughput(
    const sparse::BcrsMatrix& a, int threads = 0, double min_seconds = 0.1);

}  // namespace mrhs::perf
