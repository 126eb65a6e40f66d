/**
 * @file
 * Property sweep of ALU opcode semantics: every binary integer/float
 * operation checked against a host reference over hundreds of random
 * operand pairs, including the wrap/shift/sign corners.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <functional>

#include "common/rng.hh"
#include "func/exec_context.hh"
#include "func/global_memory.hh"

namespace vtsim {
namespace {

struct OpCase
{
    const char *name;
    Opcode op;
    std::function<std::uint32_t(std::uint32_t, std::uint32_t)> ref;
};

const OpCase kIntCases[] = {
    {"iadd", Opcode::IADD,
     [](std::uint32_t a, std::uint32_t b) { return a + b; }},
    {"isub", Opcode::ISUB,
     [](std::uint32_t a, std::uint32_t b) { return a - b; }},
    {"imul", Opcode::IMUL,
     [](std::uint32_t a, std::uint32_t b) { return a * b; }},
    {"and", Opcode::AND,
     [](std::uint32_t a, std::uint32_t b) { return a & b; }},
    {"or", Opcode::OR,
     [](std::uint32_t a, std::uint32_t b) { return a | b; }},
    {"xor", Opcode::XOR,
     [](std::uint32_t a, std::uint32_t b) { return a ^ b; }},
    {"shl", Opcode::SHL,
     [](std::uint32_t a, std::uint32_t b) { return a << (b & 31); }},
    {"shr", Opcode::SHR,
     [](std::uint32_t a, std::uint32_t b) { return a >> (b & 31); }},
    {"imin", Opcode::IMIN,
     [](std::uint32_t a, std::uint32_t b) {
         return static_cast<std::uint32_t>(
             std::min(static_cast<std::int32_t>(a),
                      static_cast<std::int32_t>(b)));
     }},
    {"imax", Opcode::IMAX,
     [](std::uint32_t a, std::uint32_t b) {
         return static_cast<std::uint32_t>(
             std::max(static_cast<std::int32_t>(a),
                      static_cast<std::int32_t>(b)));
     }},
    {"idiv", Opcode::IDIV,
     [](std::uint32_t a, std::uint32_t b) {
         const auto sa = static_cast<std::int32_t>(a);
         const auto sb = static_cast<std::int32_t>(b);
         return sb ? static_cast<std::uint32_t>(sa / sb) : 0u;
     }},
    {"irem", Opcode::IREM,
     [](std::uint32_t a, std::uint32_t b) {
         const auto sa = static_cast<std::int32_t>(a);
         const auto sb = static_cast<std::int32_t>(b);
         return sb ? static_cast<std::uint32_t>(sa % sb) : 0u;
     }},
};

const OpCase kFloatCases[] = {
    {"fadd", Opcode::FADD,
     [](std::uint32_t a, std::uint32_t b) {
         return std::bit_cast<std::uint32_t>(std::bit_cast<float>(a) +
                                             std::bit_cast<float>(b));
     }},
    {"fsub", Opcode::FSUB,
     [](std::uint32_t a, std::uint32_t b) {
         return std::bit_cast<std::uint32_t>(std::bit_cast<float>(a) -
                                             std::bit_cast<float>(b));
     }},
    {"fmul", Opcode::FMUL,
     [](std::uint32_t a, std::uint32_t b) {
         return std::bit_cast<std::uint32_t>(std::bit_cast<float>(a) *
                                             std::bit_cast<float>(b));
     }},
    {"fmin", Opcode::FMIN,
     [](std::uint32_t a, std::uint32_t b) {
         return std::bit_cast<std::uint32_t>(
             std::fmin(std::bit_cast<float>(a), std::bit_cast<float>(b)));
     }},
    {"fmax", Opcode::FMAX,
     [](std::uint32_t a, std::uint32_t b) {
         return std::bit_cast<std::uint32_t>(
             std::fmax(std::bit_cast<float>(a), std::bit_cast<float>(b)));
     }},
};

class OpSemantics : public ::testing::Test
{
  protected:
    OpSemantics()
    {
        launch_.grid = Dim3(1);
        launch_.cta = Dim3(32);
        cta_.init(0, Dim3(0, 0, 0), 32, 4, 0);
    }

    void
    checkCase(const OpCase &c, std::uint32_t a, std::uint32_t b)
    {
        for (std::uint32_t lane = 0; lane < warpSize; ++lane) {
            cta_.writeReg(lane, 0, a);
            cta_.writeReg(lane, 1, b);
        }
        Instruction inst;
        inst.op = c.op;
        inst.dst = 2;
        inst.src[0] = 0;
        inst.src[1] = 1;
        execute(inst, 0, ActiveMask::all(), cta_, gmem_, launch_);
        ASSERT_EQ(cta_.readReg(0, 2), c.ref(a, b))
            << c.name << "(" << a << ", " << b << ")";
        ASSERT_EQ(cta_.readReg(31, 2), c.ref(a, b)) << c.name;
    }

    GlobalMemory gmem_;
    CtaFuncState cta_;
    LaunchParams launch_;
};

TEST_F(OpSemantics, IntegerOpsMatchReferenceOnRandomPairs)
{
    Rng rng(0x5eed);
    for (const auto &c : kIntCases) {
        for (int i = 0; i < 300; ++i) {
            checkCase(c, static_cast<std::uint32_t>(rng.next()),
                      static_cast<std::uint32_t>(rng.next()));
        }
    }
}

TEST_F(OpSemantics, IntegerOpsCornerValues)
{
    const std::uint32_t corners[] = {0u, 1u, 0x7fffffffu, 0x80000000u,
                                     0xffffffffu, 31u, 32u, 33u};
    for (const auto &c : kIntCases)
        for (std::uint32_t a : corners)
            for (std::uint32_t b : corners) {
                // INT_MIN / -1 is UB in C++ but defined (wrapping) in
                // the simulator, matching GPU semantics; the host
                // reference cannot express it, so check it explicitly.
                if ((c.op == Opcode::IDIV || c.op == Opcode::IREM) &&
                    a == 0x80000000u && b == 0xffffffffu) {
                    for (std::uint32_t lane = 0; lane < warpSize; ++lane) {
                        cta_.writeReg(lane, 0, a);
                        cta_.writeReg(lane, 1, b);
                    }
                    Instruction inst;
                    inst.op = c.op;
                    inst.dst = 2;
                    inst.src[0] = 0;
                    inst.src[1] = 1;
                    execute(inst, 0, ActiveMask::all(), cta_, gmem_,
                            launch_);
                    ASSERT_EQ(cta_.readReg(0, 2),
                              c.op == Opcode::IDIV ? 0x80000000u : 0u);
                    continue;
                }
                checkCase(c, a, b);
            }
}

TEST_F(OpSemantics, FloatOpsMatchReferenceOnRandomPairs)
{
    Rng rng(0xf10a7);
    for (const auto &c : kFloatCases) {
        for (int i = 0; i < 300; ++i) {
            const float fa = (rng.nextFloat() - 0.5f) * 2000.0f;
            const float fb = (rng.nextFloat() - 0.5f) * 2000.0f;
            checkCase(c, std::bit_cast<std::uint32_t>(fa),
                      std::bit_cast<std::uint32_t>(fb));
        }
    }
}

/** Where IEEE 754 leaves the result bits open, vtsim fixes them: every
 *  NaN result is 0x7fffffff, fmin/fmax order -0 below +0 and take the
 *  other operand of any NaN, quiet or signalling, and FSQRT clamps a
 *  NaN or -0 operand to +0. */
TEST_F(OpSemantics, FloatCornersAreCanonical)
{
    const std::uint32_t pinf = 0x7f800000u, ninf = 0xff800000u;
    const std::uint32_t pzero = 0, nzero = 0x80000000u;
    const std::uint32_t nan_a = 0xffc00001u, nan_b = 0x7fc00002u;
    const std::uint32_t snan = 0x7f800001u;
    const std::uint32_t one = std::bit_cast<std::uint32_t>(1.0f);
    const std::uint32_t canonical = 0x7fffffffu;
    struct Corner
    {
        const char *name;
        Opcode op;
        std::uint32_t a, b, want;
    };
    const Corner corners[] = {
        {"fadd inf-inf", Opcode::FADD, pinf, ninf, canonical},
        {"fmul 0*inf", Opcode::FMUL, pzero, pinf, canonical},
        {"fsub nan-nan", Opcode::FSUB, nan_a, nan_b, canonical},
        {"fmin zeros", Opcode::FMIN, pzero, nzero, nzero},
        {"fmax zeros", Opcode::FMAX, nzero, pzero, pzero},
        {"fmin nan,nan", Opcode::FMIN, nan_b, nan_a, canonical},
        {"fmax nan,1", Opcode::FMAX, nan_a, one, one},
        {"fmax snan,1", Opcode::FMAX, snan, one, one},
        // FSQRT is unary: both operand orders put a NaN or a -0 in src 0.
        {"fsqrt snan", Opcode::FSQRT, snan, nan_a, pzero},
        {"fsqrt -0", Opcode::FSQRT, nzero, ninf, pzero},
    };
    for (const Corner &c : corners) {
        const OpCase op{c.name, c.op,
                        [&c](std::uint32_t, std::uint32_t) { return c.want; }};
        checkCase(op, c.a, c.b);
        checkCase(op, c.b, c.a);
    }
}

TEST_F(OpSemantics, MadAndFfmaMatchReference)
{
    Rng rng(0xabc);
    for (int i = 0; i < 300; ++i) {
        const std::uint32_t a = static_cast<std::uint32_t>(rng.next());
        const std::uint32_t b = static_cast<std::uint32_t>(rng.next());
        const std::uint32_t c = static_cast<std::uint32_t>(rng.next());
        for (std::uint32_t lane = 0; lane < warpSize; ++lane) {
            cta_.writeReg(lane, 0, a);
            cta_.writeReg(lane, 1, b);
            cta_.writeReg(lane, 2, c);
        }
        Instruction inst;
        inst.op = Opcode::IMAD;
        inst.dst = 3;
        inst.src[0] = 0;
        inst.src[1] = 1;
        inst.src[2] = 2;
        execute(inst, 0, ActiveMask::all(), cta_, gmem_, launch_);
        ASSERT_EQ(cta_.readReg(5, 3), a * b + c);
    }
}

TEST_F(OpSemantics, ComparesMatchSignedReference)
{
    Rng rng(0xc0de);
    const CmpOp cmps[] = {CmpOp::EQ, CmpOp::NE, CmpOp::LT,
                          CmpOp::LE, CmpOp::GT, CmpOp::GE};
    for (int i = 0; i < 500; ++i) {
        const auto a = static_cast<std::uint32_t>(rng.next());
        const auto b = rng.nextBool() ? a
                                      : static_cast<std::uint32_t>(
                                            rng.next());
        const auto sa = static_cast<std::int32_t>(a);
        const auto sb = static_cast<std::int32_t>(b);
        const bool refs[] = {sa == sb, sa != sb, sa < sb,
                             sa <= sb, sa > sb, sa >= sb};
        for (int k = 0; k < 6; ++k) {
            for (std::uint32_t lane = 0; lane < warpSize; ++lane) {
                cta_.writeReg(lane, 0, a);
                cta_.writeReg(lane, 1, b);
            }
            Instruction inst;
            inst.op = Opcode::ISETP;
            inst.cmp = cmps[k];
            inst.dst = 2;
            inst.src[0] = 0;
            inst.src[1] = 1;
            execute(inst, 0, ActiveMask::all(), cta_, gmem_, launch_);
            ASSERT_EQ(cta_.readReg(0, 2), refs[k] ? 1u : 0u)
                << "cmp " << k << " a=" << sa << " b=" << sb;
        }
    }
}

} // namespace
} // namespace vtsim
