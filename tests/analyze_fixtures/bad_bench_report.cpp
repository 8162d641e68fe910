// mrhs-analyze-fixture: as=bench/fx_printf_only.cpp
// expect: bench-report:1
//
// Known-bad: a bench binary that only prints. Its numbers never reach
// scripts/bench_runner.py or the BENCH_*.json history. Naming
// BenchHarness in this comment does not count; the finding is
// reported on line 1.
// Good twin: good_bench_report.cpp.
#include <cstdio>

int main() {
    std::printf("gspmv: 1.23 ms\n");
    return 0;
}
