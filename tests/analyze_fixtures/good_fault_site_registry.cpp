// mrhs-analyze-fixture: as=src/core/fx_fault_ok.cpp
// expect: none
//
// Known-good twin of bad_fault_site_registry.cpp: every site is a
// string literal listed in util::kFaultSites.
#include <cstddef>
#include <string_view>

namespace mrhs::util {
inline constexpr std::string_view kFaultSites[] = {
    "stepper.position.nan",
};
}  // namespace mrhs::util

bool poison(double* x, std::size_t n) {
    MRHS_FAULT_POINT("stepper.position.nan", x, n);
    return MRHS_FAULT_FIRED("stepper.position.nan");
}
