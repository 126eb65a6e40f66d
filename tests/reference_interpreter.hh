/**
 * @file
 * The reference model of VASM's functional semantics: a lane-outside,
 * opcode-switch-inside interpreter that re-decodes the Instruction for
 * every lane. It was vtsim's original interpreter and is kept as it was
 * so tests/test_micro_reference.cc can check the micro-op handlers
 * (func/exec_context.hh) against an independent implementation. One
 * change: ATOMG_ADD reads its addend before writing the destination, so
 * with dst == src1 the access log carries the addend, as the micro-op
 * handler's does, rather than the value just loaded.
 */

#ifndef VTSIM_TESTS_REFERENCE_INTERPRETER_HH
#define VTSIM_TESTS_REFERENCE_INTERPRETER_HH

#include <cstdint>

#include "func/exec_context.hh"

namespace vtsim::test {

/** Execute @p inst for warp @p warp_in_cta under @p mask, with the same
 *  contract as vtsim::execute(). */
ExecResult referenceExecute(const Instruction &inst,
                            std::uint32_t warp_in_cta, ActiveMask mask,
                            CtaFuncState &cta, GlobalMemory &gmem,
                            const LaunchParams &launch);

} // namespace vtsim::test

#endif // VTSIM_TESTS_REFERENCE_INTERPRETER_HH
