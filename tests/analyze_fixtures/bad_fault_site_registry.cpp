// mrhs-analyze-fixture: as=src/core/fx_fault.cpp
// expect: fault-site-registry:2
//
// Known-bad: fault sites the registry cannot validate. A computed name
// defeats arm-time validation, and a literal missing from
// util::kFaultSites can never be armed from --faults. The table is
// declared here because a fixture is analyzed on its own; in the repo
// scan it comes from src/util/fault_injection.hpp.
// Good twin: good_fault_site_registry.cpp.
#include <cstddef>
#include <string_view>

namespace mrhs::util {
inline constexpr std::string_view kFaultSites[] = {
    "stepper.position.nan",
};
}  // namespace mrhs::util

void poison(double* x, std::size_t n, const char* site) {
    MRHS_FAULT_POINT(site, x, n);                    // computed name
    MRHS_FAULT_POINT("stepper.position.typo", x, n);  // not in the table
}
