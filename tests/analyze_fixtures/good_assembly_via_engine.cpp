// mrhs-analyze-fixture: as=examples/fx_assembly_ok.cpp
// expect: none
//
// Known-good twin of bad_assembly_via_engine.cpp: assembly goes through
// sd::AssemblyEngine. The ResistanceAssembler named in this comment and
// in the log string below is not a use.
#include <cstdio>

#include "sd/assembly_engine.hpp"

mrhs::sparse::BcrsMatrix build(const mrhs::sd::ParticleSystem& system,
                               const mrhs::sd::ResistanceParams& params) {
    mrhs::sd::AssemblyEngine engine(params);
    std::printf("assembling without a raw ResistanceAssembler\n");
    return engine.assemble_full(system).matrix;
}
