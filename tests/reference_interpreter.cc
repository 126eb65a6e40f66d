#include "reference_interpreter.hh"

#include <bit>
#include <cmath>

#include "common/log.hh"
#include "func/global_memory.hh"

namespace vtsim::test {
namespace {

float
asFloat(std::uint32_t v)
{
    return std::bit_cast<float>(v);
}

/** Float result bits; every NaN is the canonical 0x7fffffff. */
std::uint32_t
asBits(float v)
{
    return v != v ? 0x7fffffffu : std::bit_cast<std::uint32_t>(v);
}

/** Lower of two floats, -0 below +0; a NaN operand yields the other. */
float
minFloat(float a, float b)
{
    if (a != a)
        return b;
    if (b != b)
        return a;
    if (a == 0.0f && b == 0.0f)
        return std::signbit(a) ? a : b;
    return a < b ? a : b;
}

/** Higher of two floats, +0 above -0; a NaN operand yields the other. */
float
maxFloat(float a, float b)
{
    if (a != a)
        return b;
    if (b != b)
        return a;
    if (a == 0.0f && b == 0.0f)
        return std::signbit(a) ? b : a;
    return a > b ? a : b;
}

bool
compare(CmpOp cmp, std::int64_t a, std::int64_t b)
{
    switch (cmp) {
      case CmpOp::EQ: return a == b;
      case CmpOp::NE: return a != b;
      case CmpOp::LT: return a < b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

bool
compareF(CmpOp cmp, float a, float b)
{
    switch (cmp) {
      case CmpOp::EQ: return a == b;
      case CmpOp::NE: return a != b;
      case CmpOp::LT: return a < b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

std::uint32_t
readSpecial(SpecialReg sreg, std::uint32_t thread, std::uint32_t lane,
            std::uint32_t warp_in_cta, const Dim3 &cta_idx,
            const LaunchParams &launch)
{
    const auto &cta = launch.cta;
    switch (sreg) {
      case SpecialReg::TidX: return thread % cta.x;
      case SpecialReg::TidY: return (thread / cta.x) % cta.y;
      case SpecialReg::TidZ: return thread / (cta.x * cta.y);
      case SpecialReg::NTidX: return cta.x;
      case SpecialReg::NTidY: return cta.y;
      case SpecialReg::NTidZ: return cta.z;
      case SpecialReg::CtaIdX: return cta_idx.x;
      case SpecialReg::CtaIdY: return cta_idx.y;
      case SpecialReg::CtaIdZ: return cta_idx.z;
      case SpecialReg::NCtaIdX: return launch.grid.x;
      case SpecialReg::NCtaIdY: return launch.grid.y;
      case SpecialReg::NCtaIdZ: return launch.grid.z;
      case SpecialReg::LaneId: return lane;
      case SpecialReg::WarpIdInCta: return warp_in_cta;
    }
    return 0;
}

} // namespace

ExecResult
referenceExecute(const Instruction &inst, std::uint32_t warp_in_cta,
                 ActiveMask mask, CtaFuncState &cta, GlobalMemory &gmem,
                 const LaunchParams &launch)
{
    ExecResult result;
    const std::uint32_t base_thread = warp_in_cta * warpSize;

    for (std::uint32_t lane = 0; lane < warpSize; ++lane) {
        if (!mask.test(lane))
            continue;
        const std::uint32_t thread = base_thread + lane;
        if (thread >= cta.threadsPerCta)
            continue; // Partial tail warp: lanes beyond the CTA are dead.

        auto rd = [&](int i) -> std::uint32_t {
            return cta.readReg(thread, inst.src[i]);
        };
        // Second ALU operand: register or immediate.
        auto rb = [&]() -> std::uint32_t {
            return inst.useImm ? static_cast<std::uint32_t>(inst.imm)
                               : rd(1);
        };
        auto wr = [&](std::uint32_t v) {
            cta.writeReg(thread, inst.dst, v);
        };

        switch (inst.op) {
          case Opcode::NOP:
            break;
          case Opcode::MOV: wr(rd(0)); break;
          case Opcode::MOVI: wr(static_cast<std::uint32_t>(inst.imm)); break;
          case Opcode::IADD: wr(rd(0) + rb()); break;
          case Opcode::ISUB: wr(rd(0) - rb()); break;
          case Opcode::IMUL: wr(rd(0) * rb()); break;
          case Opcode::IMAD: wr(rd(0) * rd(1) + rd(2)); break;
          case Opcode::IMIN: {
            const auto a = static_cast<std::int32_t>(rd(0));
            const auto b = static_cast<std::int32_t>(rb());
            wr(static_cast<std::uint32_t>(a < b ? a : b));
            break;
          }
          case Opcode::IMAX: {
            const auto a = static_cast<std::int32_t>(rd(0));
            const auto b = static_cast<std::int32_t>(rb());
            wr(static_cast<std::uint32_t>(a > b ? a : b));
            break;
          }
          case Opcode::AND: wr(rd(0) & rb()); break;
          case Opcode::OR: wr(rd(0) | rb()); break;
          case Opcode::XOR: wr(rd(0) ^ rb()); break;
          case Opcode::NOT: wr(~rd(0)); break;
          case Opcode::SHL: wr(rd(0) << (rb() & 31)); break;
          case Opcode::SHR: wr(rd(0) >> (rb() & 31)); break;
          case Opcode::ISETP:
            wr(compare(inst.cmp, static_cast<std::int32_t>(rd(0)),
                       static_cast<std::int32_t>(rb())) ? 1u : 0u);
            break;
          case Opcode::SEL: wr(rd(2) ? rd(0) : rd(1)); break;
          case Opcode::FADD: wr(asBits(asFloat(rd(0)) + asFloat(rb())));
            break;
          case Opcode::FSUB: wr(asBits(asFloat(rd(0)) - asFloat(rb())));
            break;
          case Opcode::FMUL: wr(asBits(asFloat(rd(0)) * asFloat(rb())));
            break;
          case Opcode::FFMA:
            wr(asBits(asFloat(rd(0)) * asFloat(rd(1)) + asFloat(rd(2))));
            break;
          case Opcode::FMIN:
            wr(asBits(minFloat(asFloat(rd(0)), asFloat(rb()))));
            break;
          case Opcode::FMAX:
            wr(asBits(maxFloat(asFloat(rd(0)), asFloat(rb()))));
            break;
          case Opcode::FSETP:
            wr(compareF(inst.cmp, asFloat(rd(0)),
                        inst.useImm ? asFloat(static_cast<std::uint32_t>(
                                          inst.imm))
                                    : asFloat(rd(1))) ? 1u : 0u);
            break;
          case Opcode::I2F:
            wr(asBits(static_cast<float>(static_cast<std::int32_t>(rd(0)))));
            break;
          case Opcode::F2I:
            wr(static_cast<std::uint32_t>(
                static_cast<std::int32_t>(asFloat(rd(0)))));
            break;
          case Opcode::IDIV: {
            const auto a = static_cast<std::int32_t>(rd(0));
            const auto b = static_cast<std::int32_t>(rb());
            if (b == 0) {
                wr(0u); // GPU semantics: no trap.
            } else if (b == -1) {
                // Defined even for INT_MIN (wraps), unlike C++.
                wr(0u - rd(0));
            } else {
                wr(static_cast<std::uint32_t>(a / b));
            }
            break;
          }
          case Opcode::IREM: {
            const auto a = static_cast<std::int32_t>(rd(0));
            const auto b = static_cast<std::int32_t>(rb());
            if (b == 0 || b == -1)
                wr(0u); // rem by -1 is exactly 0; rem by 0 -> 0.
            else
                wr(static_cast<std::uint32_t>(a % b));
            break;
          }
          case Opcode::FRCP: {
            const float x = asFloat(rd(0));
            wr(asBits(x != 0.0f ? 1.0f / x : 0.0f));
            break;
          }
          case Opcode::FSQRT:
            wr(asBits(std::sqrt(maxFloat(asFloat(rd(0)), 0.0f))));
            break;
          case Opcode::FEXP: wr(asBits(std::exp(asFloat(rd(0))))); break;
          case Opcode::FLOG: {
            const float x = asFloat(rd(0));
            wr(asBits(x > 0.0f ? std::log(x) : 0.0f));
            break;
          }
          case Opcode::S2R:
            wr(readSpecial(inst.sreg, thread, lane, warp_in_cta, cta.ctaIdx,
                           launch));
            break;
          case Opcode::LDP: {
            const auto idx = static_cast<std::uint32_t>(inst.imm);
            VTSIM_ASSERT(idx < launch.params.size(),
                         "LDP index ", idx, " out of range");
            wr(launch.params[idx]);
            break;
          }
          case Opcode::LDG: {
            const Addr addr = rd(0) + inst.imm;
            const std::uint32_t v = gmem.read32(addr);
            wr(v);
            result.globalAccesses.push_back({lane, addr, 0, v});
            break;
          }
          case Opcode::STG: {
            const Addr addr = rd(0) + inst.imm;
            gmem.write32(addr, rd(1));
            result.globalAccesses.push_back({lane, addr, rd(1), 0});
            break;
          }
          case Opcode::ATOMG_ADD: {
            const Addr addr = rd(0) + inst.imm;
            // Read the addend before wr(old): with dst == src1 the log
            // must still carry the addend, which the sharded replay
            // re-applies.
            const std::uint32_t add = rd(1);
            const std::uint32_t old = gmem.read32(addr);
            gmem.write32(addr, old + add);
            wr(old);
            result.globalAccesses.push_back({lane, addr, add, old});
            break;
          }
          case Opcode::LDS: {
            const std::uint32_t addr = rd(0) + inst.imm;
            wr(cta.readShared32(addr));
            result.sharedAccesses.push_back({lane, addr});
            break;
          }
          case Opcode::STS: {
            const std::uint32_t addr = rd(0) + inst.imm;
            cta.writeShared32(addr, rd(1));
            result.sharedAccesses.push_back({lane, addr});
            break;
          }
          case Opcode::BRA:
            // Unconditional (no predicate) or predicate != 0 takes it.
            if (inst.src[0] == noReg || rd(0) != 0)
                result.branchTaken.set(lane);
            break;
          case Opcode::BAR:
          case Opcode::EXIT:
            break; // Handled entirely by the timing model.
          default:
            VTSIM_PANIC("unimplemented opcode ",
                        static_cast<int>(inst.op));
        }
    }
    return result;
}

} // namespace vtsim::test
