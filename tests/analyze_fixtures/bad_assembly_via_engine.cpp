// mrhs-analyze-fixture: as=examples/fx_assembly.cpp
// expect: assembly-via-engine:1
//
// Known-bad: building R directly with the ResistanceAssembler outside
// src/sd. The matrix bypasses the engine's dirty-pair tracking and
// pattern cache, and none of the assembly.* counters fire.
// Good twin: good_assembly_via_engine.cpp.
#include "sd/resistance.hpp"

mrhs::sparse::BcrsMatrix build(const mrhs::sd::ParticleSystem& system,
                               const mrhs::sd::ResistanceParams& params) {
    mrhs::sd::ResistanceAssembler assembler(params);
    return assembler.assemble_full(system);
}
