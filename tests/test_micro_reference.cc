/**
 * @file
 * Differential test of the micro-op interpreter (func/exec_context.hh)
 * against the per-lane reference interpreter
 * (tests/reference_interpreter.hh). Every opcode runs from seeded random
 * pre-states — register file, shared memory, global memory and launch
 * geometry built twice from the same seed — and the two runs must agree
 * on the ExecResult, the whole register file, every shared byte and
 * every global byte either run touched.
 *
 * Coverage: every opcode; register and immediate forms; every CmpOp and
 * SpecialReg; predicated and unpredicated BRA; full, random, sparse
 * and one-lane masks on a full warp and on the CTA's partial tail warp
 * (where a lane beyond the CTA leaves the mask empty); same-address
 * ATOMG_ADD lanes; overlapping, unaligned and out-of-bounds STS; IDIV
 * and IREM by 0 and -1 and of INT_MIN; global ops in defer-writes
 * (sharded epoch) mode.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "func/exec_context.hh"
#include "func/global_memory.hh"
#include "isa/instruction.hh"
#include "reference_interpreter.hh"

namespace vtsim {
namespace {

constexpr std::uint32_t kRegs = 12;
/** 48 threads: warp 0 is full, warp 1 is a partial tail of 16 lanes. */
constexpr std::uint32_t kThreads = 48;
constexpr std::uint32_t kSharedBytes = 256;
constexpr Addr kGlobalBase = 0x10000;
constexpr std::uint32_t kGlobalWords = 64;

/** Register values that hit the corners: zero, -1, INT_MIN/MAX, small
 *  shifts and divisors, float specials, and anything at all. */
std::uint32_t
interesting(std::mt19937 &rng)
{
    static const std::uint32_t corners[] = {
        0u, 1u, 2u, 31u, 32u, 33u, 0xffffffffu, 0x80000000u, 0x7fffffffu,
        std::bit_cast<std::uint32_t>(1.5f),
        std::bit_cast<std::uint32_t>(-2.0f),
        std::bit_cast<std::uint32_t>(0.0f),
        std::bit_cast<std::uint32_t>(-0.0f),
        std::bit_cast<std::uint32_t>(3.0e9f),
        0x7f800000u, // +inf
        0xff800000u, // -inf
        0x7fc00000u, // NaN
    };
    if (rng() % 2 == 0)
        return corners[rng() % std::size(corners)];
    return std::uint32_t(rng());
}

/** One functional pre-state: launch geometry, CTA values, memory. */
struct State
{
    LaunchParams launch;
    CtaFuncState cta;
    GlobalMemory gmem;
};

/**
 * Fill @p st from @p seed. Building both sides' state with the same
 * seed gives identical pre-states without copying GlobalMemory.
 * Registers of @p addr_reg hold global or shared addresses (per
 * @p addr_kind) so memory ops land where the test can compare them.
 */
enum class AddrKind { None, Global, GlobalSame, Shared };

void
fill(State &st, std::uint32_t seed, RegIndex addr_reg, AddrKind addr_kind)
{
    std::mt19937 rng(seed);
    st.launch.grid = {3, 2, 2};
    st.launch.cta = {16, 3, 1};
    st.launch.params.clear();
    for (int i = 0; i < 4; ++i)
        st.launch.params.push_back(interesting(rng));
    st.cta.init(7, Dim3{2, 1, 1}, kThreads, kRegs, kSharedBytes);
    for (std::uint32_t &r : st.cta.regs)
        r = interesting(rng);
    for (std::uint8_t &b : st.cta.shared)
        b = std::uint8_t(rng());
    for (std::uint32_t i = 0; i < kGlobalWords; ++i)
        st.gmem.write32(kGlobalBase + 4 * i, std::uint32_t(rng()));

    const Addr same = kGlobalBase + 4 * (rng() % kGlobalWords);
    for (std::uint32_t t = 0; t < kThreads && addr_reg != noReg; ++t) {
        std::uint32_t addr = 0;
        switch (addr_kind) {
          case AddrKind::None:
            continue;
          case AddrKind::Global:
            // Mostly distinct words, sometimes shared ones.
            addr = kGlobalBase + 4 * (rng() % (kGlobalWords / 2));
            break;
          case AddrKind::GlobalSame:
            addr = std::uint32_t(same);
            break;
          case AddrKind::Shared:
            // Unaligned and overlapping in bounds, or wholly out of
            // bounds — never straddling the end of the allocation.
            // (The instruction's offset is below 8.)
            addr = rng() % 4 == 0 ? kSharedBytes + rng() % 64
                                  : rng() % (kSharedBytes - 4 - 7);
            break;
        }
        st.cta.writeReg(t, addr_reg, addr);
    }
}

/** Masks worth trying: all, random, one lane, sparse random. */
ActiveMask
pickMask(std::mt19937 &rng)
{
    switch (rng() % 4) {
      case 0: return ActiveMask::all();
      case 1: return ActiveMask(std::uint32_t(rng()));
      case 2: return ActiveMask(1u << (rng() % warpSize));
      default: return ActiveMask(std::uint32_t(rng()) & std::uint32_t(rng()));
    }
}

/** The first register where @p a and @p b differ, bit for bit (NaN
 *  results are canonical and fmin/fmax order -0 below +0, so no float
 *  bit is left to the compiler), or "" when the register files agree. */
std::string
firstDiff(const std::vector<std::uint32_t> &a,
          const std::vector<std::uint32_t> &b)
{
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
        if (a[i] != b[i]) {
            // The file is warp-major: 32 lanes of one register in a row.
            const std::size_t row = i / warpSize;
            return "thread " +
                   std::to_string(row / kRegs * warpSize + i % warpSize) +
                   " r" + std::to_string(row % kRegs) + ": micro " +
                   std::to_string(a[i]) + ", reference " +
                   std::to_string(b[i]);
        }
    }
    return a.size() == b.size() ? "" : "size differs";
}

/**
 * Run @p inst on two pre-states built from @p seed — the micro-op
 * interpreter on one, the reference on the other — and compare.
 * @p prepare, if set, edits each pre-state after fill().
 */
void
checkOne(const Instruction &inst, std::uint32_t seed, AddrKind addr_kind,
         bool defer_writes = false,
         const std::function<void(State &)> &prepare = {})
{
    std::mt19937 rng(seed ^ 0x9e3779b9u);
    const std::uint32_t warp = rng() % 2;
    const ActiveMask mask = pickMask(rng);
    const RegIndex addr_reg =
        addr_kind == AddrKind::None ? noReg : inst.src[0];

    State micro;
    State ref;
    for (State *st : {&micro, &ref}) {
        fill(*st, seed, addr_reg, addr_kind);
        if (prepare)
            prepare(*st);
        st->gmem.setDeferWrites(defer_writes);
    }

    const ExecResult got =
        execute(inst, warp, mask, micro.cta, micro.gmem, micro.launch);
    const ExecResult want = test::referenceExecute(inst, warp, mask, ref.cta,
                                                   ref.gmem, ref.launch);

    const std::string ctx = std::string(toString(inst.op)) +
                            (inst.useImm ? " imm" : "") + " seed " +
                            std::to_string(seed) + " warp " +
                            std::to_string(warp) + " mask " +
                            mask.toString();
    EXPECT_TRUE(got.branchTaken == want.branchTaken) << ctx;
    EXPECT_TRUE(got.globalAccesses == want.globalAccesses) << ctx;
    EXPECT_TRUE(got.sharedAccesses == want.sharedAccesses) << ctx;
    EXPECT_EQ(firstDiff(micro.cta.regs, ref.cta.regs), "") << ctx;
    EXPECT_TRUE(micro.cta.shared == ref.cta.shared) << ctx;
    for (const ExecResult *res : {&got, &want}) {
        for (const LaneAccess &a : res->globalAccesses) {
            for (Addr b = a.addr; b < a.addr + 4; ++b) {
                EXPECT_EQ(micro.gmem.read8(b), ref.gmem.read8(b))
                    << ctx << " gmem[" << b << "]";
            }
        }
    }
}

bool
hasImmForm(Opcode op)
{
    switch (op) {
      case Opcode::IADD: case Opcode::ISUB: case Opcode::IMUL:
      case Opcode::IMIN: case Opcode::IMAX: case Opcode::AND:
      case Opcode::OR: case Opcode::XOR: case Opcode::SHL:
      case Opcode::SHR: case Opcode::ISETP: case Opcode::FADD:
      case Opcode::FSUB: case Opcode::FMUL: case Opcode::FMIN:
      case Opcode::FMAX: case Opcode::FSETP: case Opcode::IDIV:
      case Opcode::IREM:
        return true;
      default:
        return false;
    }
}

/** A random instruction of opcode @p op; variant fields set by caller. */
Instruction
randomInst(Opcode op, std::mt19937 &rng)
{
    Instruction inst;
    inst.op = op;
    inst.dst = RegIndex(rng() % kRegs);
    for (RegIndex &s : inst.src)
        s = RegIndex(rng() % kRegs);
    inst.imm = std::int32_t(interesting(rng));
    inst.branchTarget = 0;
    switch (op) {
      case Opcode::LDP:
        inst.imm = std::int32_t(rng() % 4);
        break;
      case Opcode::LDG: case Opcode::STG: case Opcode::ATOMG_ADD:
        inst.imm = std::int32_t(4 * (rng() % 8));
        break;
      case Opcode::LDS: case Opcode::STS:
        inst.imm = std::int32_t(rng() % 8);
        break;
      default:
        break;
    }
    return inst;
}

AddrKind
addrKindFor(Opcode op, std::mt19937 &rng)
{
    switch (op) {
      case Opcode::LDG: case Opcode::STG:
        return AddrKind::Global;
      case Opcode::ATOMG_ADD:
        return rng() % 2 ? AddrKind::GlobalSame : AddrKind::Global;
      case Opcode::LDS: case Opcode::STS:
        return AddrKind::Shared;
      default:
        return AddrKind::None;
    }
}

constexpr int kTrials = 24;

TEST(MicroReference, EveryOpcodeFromRandomPreStates)
{
    std::mt19937 rng(20160618);
    std::set<Opcode> covered;
    for (unsigned o = 0; o < unsigned(Opcode::NumOpcodes); ++o) {
        const auto op = static_cast<Opcode>(o);
        for (const bool use_imm : {false, true}) {
            if (use_imm && !hasImmForm(op))
                continue;
            for (int trial = 0; trial < kTrials; ++trial) {
                Instruction inst = randomInst(op, rng);
                inst.useImm = use_imm;
                inst.cmp = static_cast<CmpOp>(rng() % 6);
                inst.sreg = static_cast<SpecialReg>(rng() % 14);
                const AddrKind kind = addrKindFor(op, rng);
                checkOne(inst, std::uint32_t(rng()), kind,
                         kind != AddrKind::None && kind != AddrKind::Shared &&
                             trial % 4 == 3);
            }
            covered.insert(op);
        }
    }
    EXPECT_EQ(covered.size(), std::size_t(Opcode::NumOpcodes));
}

TEST(MicroReference, EveryCmpOpBothFormsAndTypes)
{
    std::mt19937 rng(0x5eed);
    for (const Opcode op : {Opcode::ISETP, Opcode::FSETP}) {
        for (unsigned c = 0; c <= unsigned(CmpOp::GE); ++c) {
            for (const bool use_imm : {false, true}) {
                for (int trial = 0; trial < kTrials; ++trial) {
                    Instruction inst = randomInst(op, rng);
                    inst.cmp = static_cast<CmpOp>(c);
                    inst.useImm = use_imm;
                    checkOne(inst, std::uint32_t(rng()), AddrKind::None);
                }
            }
        }
    }
}

TEST(MicroReference, EverySpecialRegister)
{
    std::mt19937 rng(14);
    for (unsigned r = 0; r <= unsigned(SpecialReg::WarpIdInCta); ++r) {
        for (int trial = 0; trial < kTrials; ++trial) {
            Instruction inst = randomInst(Opcode::S2R, rng);
            inst.sreg = static_cast<SpecialReg>(r);
            checkOne(inst, std::uint32_t(rng()), AddrKind::None);
        }
    }
}

TEST(MicroReference, PredicatedAndUnpredicatedBranch)
{
    std::mt19937 rng(3);
    for (const bool predicated : {false, true}) {
        for (int trial = 0; trial < 4 * kTrials; ++trial) {
            Instruction inst = randomInst(Opcode::BRA, rng);
            if (!predicated)
                inst.src[0] = noReg;
            checkOne(inst, std::uint32_t(rng()), AddrKind::None);
        }
    }
}

TEST(MicroReference, SameAddressAtomicsAndSharedOverlap)
{
    std::mt19937 rng(7);
    for (int trial = 0; trial < 8 * kTrials; ++trial) {
        Instruction atom = randomInst(Opcode::ATOMG_ADD, rng);
        checkOne(atom, std::uint32_t(rng()), AddrKind::GlobalSame,
                 trial % 4 == 3);
        Instruction sts = randomInst(Opcode::STS, rng);
        checkOne(sts, std::uint32_t(rng()), AddrKind::Shared);
    }
}

TEST(MicroReference, DivisionCorners)
{
    std::mt19937 rng(11);
    for (const Opcode op : {Opcode::IDIV, Opcode::IREM}) {
        for (const std::int32_t divisor : {0, -1, 1, -7}) {
            for (const bool use_imm : {false, true}) {
                for (int trial = 0; trial < kTrials; ++trial) {
                    Instruction inst = randomInst(op, rng);
                    inst.useImm = use_imm;
                    inst.imm = divisor;
                    if (inst.src[1] == inst.src[0])
                        inst.src[1] = RegIndex((inst.src[0] + 1) % kRegs);
                    // Dividend INT_MIN in every other thread.
                    const auto pin = [&inst, divisor](State &st) {
                        for (std::uint32_t t = 0; t < kThreads; t += 2) {
                            st.cta.writeReg(t, inst.src[0], 0x80000000u);
                            st.cta.writeReg(t, inst.src[1],
                                            std::uint32_t(divisor));
                        }
                    };
                    checkOne(inst, std::uint32_t(rng()), AddrKind::None,
                             false, pin);
                }
            }
        }
    }
}

} // namespace
} // namespace vtsim
