// Google-benchmark microbenchmarks for the machine-characterization
// kernels: STREAM triad (B) and the cache-resident basic kernel (F),
// the two inputs of the paper's performance model.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "perf/machine.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/gspmv.hpp"
#include "sparse/multivector.hpp"
#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;

void bm_stream_triad(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::AlignedVector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + 3.0 * c[i];
    benchmark::DoNotOptimize(a.data());
    benchmark::ClobberMemory();
  }
  state.counters["bytes"] = benchmark::Counter(
      4.0 * static_cast<double>(n) * sizeof(double),
      benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(bm_stream_triad)->Arg(1 << 20)->Arg(8 << 20);

void bm_basic_kernel(benchmark::State& state) {
  // The paper's F benchmark: repeatedly multiply the same small
  // (cache-resident) block structure.
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto tile = sparse::make_random_bcrs(64, 25.0, 7, false);
  sparse::MultiVector x(tile.cols(), m), y(tile.rows(), m);
  util::StreamRng rng(5);
  x.fill_normal(rng);
  const sparse::GspmvEngine engine(tile, 1);
  for (auto _ : state) {
    engine.apply(x, y, sparse::GspmvKernel::kAuto);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["flops"] = benchmark::Counter(
      engine.flops(m), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(bm_basic_kernel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Arg(64);

void bm_measured_machine(benchmark::State& state) {
  // One-shot characterization, reported as counters so the numbers
  // land in the benchmark log.
  perf::StreamOptions stream;
  stream.elements = 4u << 20;
  stream.repetitions = 2;
  perf::KernelFlopsOptions kern;
  kern.min_seconds = 0.02;
  double bandwidth = 0.0, flops = 0.0;
  for (auto _ : state) {
    bandwidth = perf::measure_stream_bandwidth(stream);
    flops = perf::measure_kernel_flops_average(kern);
    benchmark::DoNotOptimize(bandwidth);
    benchmark::DoNotOptimize(flops);
  }
  state.counters["B_GBps"] = bandwidth * 1e-9;
  state.counters["F_Gflops"] = flops * 1e-9;
  state.counters["B_over_F"] = bandwidth / flops;
}
BENCHMARK(bm_measured_machine)->Iterations(1);

}  // namespace

// Custom main so the run also emits a BenchReport sidecar (the harness
// stays out of google-benchmark's argv; override the sidecar path with
// MRHS_REPORT_OUT).
int main(int argc, char** argv) {
  mrhs::bench::BenchHarness harness("micro_kernels");
  harness.begin();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  harness.finish("Microbenchmarks — machine probes and solver kernels");
  return 0;
}
