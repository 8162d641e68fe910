// mrhs-analyze-fixture: as=bench/fx_reported.cpp
// expect: none
//
// Known-good twin of bad_bench_report.cpp: main runs under
// bench::BenchHarness, which writes the BenchReport sidecar.
#include "bench_common.hpp"

int main(int argc, char** argv) {
    mrhs::bench::BenchHarness harness("fx_reported");
    mrhs::util::ArgParser args("fx_reported", "reported bench");
    harness.add_to(args);
    args.parse(argc, argv);
    harness.begin();
    harness.report().set_value("gspmv_ms", 1.23);
    harness.finish("reported bench");
    return 0;
}
