#include "perf/measure.hpp"

#include <algorithm>
#include <limits>

#include "sparse/gspmv.hpp"
#include "sparse/multivector.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace mrhs::perf {

double measure_gspmv_seconds(const sparse::BcrsMatrix& a, std::size_t m,
                             int threads, double min_seconds) {
  sparse::MultiVector x(a.cols(), m), y(a.rows(), m);
  util::StreamRng rng(11);
  x.fill_normal(rng);
  const sparse::GspmvEngine engine(a, threads);
  return util::time_per_call(
      [&]() { engine.apply(x, y, sparse::GspmvKernel::kAuto); }, min_seconds);
}

std::vector<RelativeTimePoint> measure_relative_time(
    const sparse::BcrsMatrix& a, std::span<const std::size_t> m_values,
    int threads, double min_seconds) {
  // Interleave the widths over several rounds, one short window each,
  // and keep every width's fastest: a burst of outside load then slows
  // one window of every width instead of the whole m = 1 baseline that
  // all the ratios divide by.
  constexpr int kRounds = 5;
  std::vector<std::size_t> widths{1};
  for (std::size_t m : m_values) {
    if (std::find(widths.begin(), widths.end(), m) == widths.end()) {
      widths.push_back(m);
    }
  }
  std::vector<double> best(widths.size(),
                           std::numeric_limits<double>::infinity());
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t w = 0; w < widths.size(); ++w) {
      best[w] = std::min(best[w], measure_gspmv_seconds(
                                      a, widths[w], threads,
                                      min_seconds / kRounds));
    }
  }
  std::vector<RelativeTimePoint> out;
  out.reserve(m_values.size());
  for (std::size_t m : m_values) {
    RelativeTimePoint pt;
    pt.m = m;
    pt.seconds = best[static_cast<std::size_t>(
        std::find(widths.begin(), widths.end(), m) - widths.begin())];
    pt.relative = pt.seconds / best[0];
    out.push_back(pt);
  }
  return out;
}

SpmvThroughput measure_spmv_throughput(const sparse::BcrsMatrix& a,
                                       int threads, double min_seconds) {
  SpmvThroughput out;
  out.seconds = measure_gspmv_seconds(a, 1, threads, min_seconds);
  const sparse::GspmvEngine engine(a, threads);
  out.gbytes_per_sec = engine.min_bytes(1) / out.seconds * 1e-9;
  out.gflops = engine.flops(1) / out.seconds * 1e-9;
  return out;
}

}  // namespace mrhs::perf
