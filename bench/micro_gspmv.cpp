// Google-benchmark microbenchmarks for the GSPMV kernels:
// reference vs SIMD, row-major vs column-major vector layout (the
// paper's layout choice), and the m sweep on an SD-like matrix.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "sparse/bcrs.hpp"
#include "sparse/csr.hpp"
#include "sparse/gspmv.hpp"
#include "sparse/multivector.hpp"
#include "util/rng.hpp"

namespace {

using namespace mrhs;

const sparse::BcrsMatrix& test_matrix() {
  // ~25 blocks per row like mat2; ~8k block rows so the matrix
  // (~15 MB) streams from memory.
  static const auto matrix = sparse::make_random_bcrs(8000, 25.0, 42);
  return matrix;
}

void bm_gspmv_simd(benchmark::State& state) {
  const auto& a = test_matrix();
  const auto m = static_cast<std::size_t>(state.range(0));
  sparse::MultiVector x(a.cols(), m), y(a.rows(), m);
  util::StreamRng rng(1);
  x.fill_normal(rng);
  const sparse::GspmvEngine engine(a, 1);
  for (auto _ : state) {
    engine.apply(x, y, sparse::GspmvKernel::kAuto);
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["flops"] = benchmark::Counter(
      engine.flops(m), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(bm_gspmv_simd)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void bm_gspmv_reference(benchmark::State& state) {
  const auto& a = test_matrix();
  const auto m = static_cast<std::size_t>(state.range(0));
  sparse::MultiVector x(a.cols(), m), y(a.rows(), m);
  util::StreamRng rng(2);
  x.fill_normal(rng);
  const sparse::GspmvEngine engine(a, 1);
  for (auto _ : state) {
    engine.apply(x, y, sparse::GspmvKernel::kReference);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(bm_gspmv_reference)->Arg(1)->Arg(4)->Arg(16);

void bm_gspmv_colmajor(benchmark::State& state) {
  // Layout ablation: the same multiply with column-major vectors.
  const auto& a = test_matrix();
  const auto m = static_cast<std::size_t>(state.range(0));
  util::AlignedVector<double> x(a.cols() * m), y(a.rows() * m);
  util::StreamRng rng(3);
  rng.fill_normal({x.data(), x.size()});
  for (auto _ : state) {
    sparse::gspmv_colmajor(a, x.data(), y.data(), m);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(bm_gspmv_colmajor)->Arg(1)->Arg(4)->Arg(16);

void bm_gspmv_simd256(benchmark::State& state) {
  // Kernel-width ablation: force the AVX2 (4-lane) variant; compare
  // with bm_gspmv_simd, which picks AVX-512 when compiled in.
  const auto& a = test_matrix();
  const auto m = static_cast<std::size_t>(state.range(0));
  sparse::MultiVector x(a.cols(), m), y(a.rows(), m);
  util::StreamRng rng(6);
  x.fill_normal(rng);
  const sparse::GspmvEngine engine(a, 1);
  for (auto _ : state) {
    engine.apply(x, y, sparse::GspmvKernel::kForceAvx2);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(bm_gspmv_simd256)->Arg(8)->Arg(16)->Arg(32);

void bm_spmv_csr_scalar(benchmark::State& state) {
  // Format ablation: the same matrix in scalar CSR (no 3x3 blocks).
  // BCRS halves the index traffic and feeds the block microkernels —
  // the "natural 3x3 block structure" the paper exploits.
  static const auto csr = test_matrix().to_csr();
  util::AlignedVector<double> x(csr.cols()), y(csr.rows());
  util::StreamRng rng(7);
  rng.fill_normal({x.data(), x.size()});
  for (auto _ : state) {
    csr.multiply(std::span<const double>(x), std::span<double>(y));
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(bm_spmv_csr_scalar);

void bm_spmv(benchmark::State& state) {
  const auto& a = test_matrix();
  util::AlignedVector<double> x(a.cols()), y(a.rows());
  util::StreamRng rng(4);
  rng.fill_normal({x.data(), x.size()});
  const sparse::GspmvEngine engine(a, 1);
  for (auto _ : state) {
    engine.apply(std::span<const double>(x), std::span<double>(y));
    benchmark::DoNotOptimize(y.data());
  }
  state.counters["bytes"] = benchmark::Counter(
      engine.min_bytes(1), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(bm_spmv);

}  // namespace

// Custom main so the run also emits a BenchReport sidecar (the harness
// stays out of google-benchmark's argv; override the sidecar path with
// MRHS_REPORT_OUT).
int main(int argc, char** argv) {
  mrhs::bench::BenchHarness harness("micro_gspmv");
  harness.begin();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  harness.finish("Microbenchmarks — GSPMV kernels");
  return 0;
}
