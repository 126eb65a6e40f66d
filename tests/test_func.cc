/**
 * @file
 * Unit tests for the functional execution engine: per-opcode semantics,
 * special registers, masking, memory access reporting.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "func/exec_context.hh"
#include "func/global_memory.hh"

namespace vtsim {
namespace {

TEST(CtaFuncStateImage, RoundTripKeepsThreadMajorBytes)
{
    // 80 threads: two full warps and a 16-lane tail warp padded to 32.
    constexpr std::uint32_t threads = 80;
    constexpr std::uint32_t regs = 7;
    CtaFuncState cta;
    cta.init(5, Dim3(1, 2, 0), threads, regs, 16);
    EXPECT_EQ(cta.regs.size(), 3u * regs * warpSize);
    std::vector<std::uint32_t> image(threads * regs);
    for (std::uint32_t t = 0; t < threads; ++t) {
        for (RegIndex r = 0; r < regs; ++r) {
            const std::uint32_t v = t * 1000 + r;
            cta.writeReg(t, r, v);
            image[t * regs + r] = v;
        }
    }
    // Warp-major: register r of lane l of warp w at (w * R + r) * 32 + l.
    EXPECT_EQ(cta.regs[(2 * regs + 3) * warpSize + 5], 69u * 1000 + 3);
    cta.shared[3] = 0xab;

    Serializer ser;
    cta.save(ser);
    Serializer want; // The thread-major image, built by hand.
    want.put(std::uint64_t(5));
    want.put(Dim3(1, 2, 0));
    want.putVec(image);
    want.putVec(cta.shared);
    want.put(regs);
    want.put(threads);
    EXPECT_EQ(ser.buffer(), want.buffer());

    CtaFuncState back;
    Deserializer des(ser.buffer());
    back.restore(des);
    EXPECT_EQ(back.regs, cta.regs);
    EXPECT_EQ(back.shared, cta.shared);
    EXPECT_EQ(back.readReg(79, 6), 79u * 1000 + 6);
}

class FuncTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        launch_.grid = Dim3(4, 2);
        launch_.cta = Dim3(64); // 2 warps
        launch_.params = {111, 222, 333};
        cta_.init(3, Dim3(3, 0, 0), 64, 16, 256);
    }

    /** Run one instruction on warp 0 with all lanes active. */
    ExecResult
    run(const Instruction &inst, ActiveMask mask = ActiveMask::all())
    {
        return execute(inst, 0, mask, cta_, gmem_, launch_);
    }

    Instruction
    alu(Opcode op, RegIndex dst, RegIndex a, RegIndex b)
    {
        Instruction i;
        i.op = op;
        i.dst = dst;
        i.src[0] = a;
        i.src[1] = b;
        return i;
    }

    void
    setAllLanes(RegIndex reg, std::uint32_t value)
    {
        for (std::uint32_t t = 0; t < 64; ++t)
            cta_.writeReg(t, reg, value);
    }

    void
    setLane(std::uint32_t lane, RegIndex reg, std::uint32_t value)
    {
        cta_.writeReg(lane, reg, value);
    }

    GlobalMemory gmem_;
    CtaFuncState cta_;
    LaunchParams launch_;
};

TEST_F(FuncTest, IntegerArithmetic)
{
    setAllLanes(0, 10);
    setAllLanes(1, 3);
    run(alu(Opcode::IADD, 2, 0, 1));
    EXPECT_EQ(cta_.readReg(0, 2), 13u);
    run(alu(Opcode::ISUB, 2, 0, 1));
    EXPECT_EQ(cta_.readReg(0, 2), 7u);
    run(alu(Opcode::IMUL, 2, 0, 1));
    EXPECT_EQ(cta_.readReg(0, 2), 30u);
    run(alu(Opcode::AND, 2, 0, 1));
    EXPECT_EQ(cta_.readReg(0, 2), 2u);
    run(alu(Opcode::OR, 2, 0, 1));
    EXPECT_EQ(cta_.readReg(0, 2), 11u);
    run(alu(Opcode::XOR, 2, 0, 1));
    EXPECT_EQ(cta_.readReg(0, 2), 9u);
    run(alu(Opcode::SHL, 2, 0, 1));
    EXPECT_EQ(cta_.readReg(0, 2), 80u);
    run(alu(Opcode::SHR, 2, 0, 1));
    EXPECT_EQ(cta_.readReg(0, 2), 1u);
}

TEST_F(FuncTest, SignedMinMaxDivRem)
{
    setAllLanes(0, static_cast<std::uint32_t>(-9));
    setAllLanes(1, 4);
    run(alu(Opcode::IMIN, 2, 0, 1));
    EXPECT_EQ(static_cast<std::int32_t>(cta_.readReg(0, 2)), -9);
    run(alu(Opcode::IMAX, 2, 0, 1));
    EXPECT_EQ(static_cast<std::int32_t>(cta_.readReg(0, 2)), 4);
    run(alu(Opcode::IDIV, 2, 0, 1));
    EXPECT_EQ(static_cast<std::int32_t>(cta_.readReg(0, 2)), -2);
    run(alu(Opcode::IREM, 2, 0, 1));
    EXPECT_EQ(static_cast<std::int32_t>(cta_.readReg(0, 2)), -1);
}

TEST_F(FuncTest, DivideByZeroYieldsZero)
{
    setAllLanes(0, 7);
    setAllLanes(1, 0);
    run(alu(Opcode::IDIV, 2, 0, 1));
    EXPECT_EQ(cta_.readReg(0, 2), 0u);
    run(alu(Opcode::IREM, 2, 0, 1));
    EXPECT_EQ(cta_.readReg(0, 2), 0u);
}

TEST_F(FuncTest, ImmediateOperand)
{
    setAllLanes(0, 5);
    Instruction i = alu(Opcode::IADD, 1, 0, noReg);
    i.src[1] = noReg;
    i.useImm = true;
    i.imm = -2;
    run(i);
    EXPECT_EQ(cta_.readReg(0, 1), 3u);
}

TEST_F(FuncTest, MadForms)
{
    setAllLanes(0, 3);
    setAllLanes(1, 4);
    setAllLanes(2, 5);
    Instruction i = alu(Opcode::IMAD, 3, 0, 1);
    i.src[2] = 2;
    run(i);
    EXPECT_EQ(cta_.readReg(0, 3), 17u);
}

TEST_F(FuncTest, FloatArithmetic)
{
    setAllLanes(0, std::bit_cast<std::uint32_t>(1.5f));
    setAllLanes(1, std::bit_cast<std::uint32_t>(2.0f));
    run(alu(Opcode::FADD, 2, 0, 1));
    EXPECT_EQ(std::bit_cast<float>(cta_.readReg(0, 2)), 3.5f);
    run(alu(Opcode::FSUB, 2, 0, 1));
    EXPECT_EQ(std::bit_cast<float>(cta_.readReg(0, 2)), -0.5f);
    run(alu(Opcode::FMUL, 2, 0, 1));
    EXPECT_EQ(std::bit_cast<float>(cta_.readReg(0, 2)), 3.0f);
    run(alu(Opcode::FMIN, 2, 0, 1));
    EXPECT_EQ(std::bit_cast<float>(cta_.readReg(0, 2)), 1.5f);
    run(alu(Opcode::FMAX, 2, 0, 1));
    EXPECT_EQ(std::bit_cast<float>(cta_.readReg(0, 2)), 2.0f);
}

TEST_F(FuncTest, FloatUnary)
{
    setAllLanes(0, std::bit_cast<std::uint32_t>(4.0f));
    Instruction i;
    i.op = Opcode::FSQRT;
    i.dst = 1;
    i.src[0] = 0;
    run(i);
    EXPECT_EQ(std::bit_cast<float>(cta_.readReg(0, 1)), 2.0f);
    i.op = Opcode::FRCP;
    run(i);
    EXPECT_EQ(std::bit_cast<float>(cta_.readReg(0, 1)), 0.25f);
    i.op = Opcode::FEXP;
    run(i);
    EXPECT_EQ(std::bit_cast<float>(cta_.readReg(0, 1)), std::exp(4.0f));
    i.op = Opcode::FLOG;
    run(i);
    EXPECT_EQ(std::bit_cast<float>(cta_.readReg(0, 1)), std::log(4.0f));
}

TEST_F(FuncTest, FlogOfNonPositiveIsZero)
{
    setAllLanes(0, std::bit_cast<std::uint32_t>(-1.0f));
    Instruction i;
    i.op = Opcode::FLOG;
    i.dst = 1;
    i.src[0] = 0;
    run(i);
    EXPECT_EQ(cta_.readReg(0, 1), 0u);
}

TEST_F(FuncTest, Conversions)
{
    setAllLanes(0, static_cast<std::uint32_t>(-3));
    Instruction i;
    i.op = Opcode::I2F;
    i.dst = 1;
    i.src[0] = 0;
    run(i);
    EXPECT_EQ(std::bit_cast<float>(cta_.readReg(0, 1)), -3.0f);
    setAllLanes(0, std::bit_cast<std::uint32_t>(-2.7f));
    i.op = Opcode::F2I;
    run(i);
    EXPECT_EQ(static_cast<std::int32_t>(cta_.readReg(0, 1)), -2);
}

TEST_F(FuncTest, ComparesAndSelect)
{
    setAllLanes(0, static_cast<std::uint32_t>(-1)); // signed -1
    setAllLanes(1, 1);
    Instruction i = alu(Opcode::ISETP, 2, 0, 1);
    i.cmp = CmpOp::LT;
    run(i);
    EXPECT_EQ(cta_.readReg(0, 2), 1u); // -1 < 1 signed
    i.cmp = CmpOp::GT;
    run(i);
    EXPECT_EQ(cta_.readReg(0, 2), 0u);

    setAllLanes(3, 77);
    setAllLanes(4, 88);
    setAllLanes(5, 0);
    Instruction s = alu(Opcode::SEL, 6, 3, 4);
    s.src[2] = 5;
    run(s);
    EXPECT_EQ(cta_.readReg(0, 6), 88u); // cond == 0 -> second
    setAllLanes(5, 1);
    run(s);
    EXPECT_EQ(cta_.readReg(0, 6), 77u);
}

TEST_F(FuncTest, SpecialRegisters)
{
    Instruction i;
    i.op = Opcode::S2R;
    i.dst = 0;
    i.sreg = SpecialReg::TidX;
    run(i);
    EXPECT_EQ(cta_.readReg(0, 0), 0u);
    EXPECT_EQ(cta_.readReg(31, 0), 31u);

    i.sreg = SpecialReg::CtaIdX;
    run(i);
    EXPECT_EQ(cta_.readReg(5, 0), 3u);

    i.sreg = SpecialReg::NTidX;
    run(i);
    EXPECT_EQ(cta_.readReg(5, 0), 64u);

    i.sreg = SpecialReg::NCtaIdY;
    run(i);
    EXPECT_EQ(cta_.readReg(5, 0), 2u);

    i.sreg = SpecialReg::LaneId;
    run(i);
    EXPECT_EQ(cta_.readReg(7, 0), 7u);

    i.sreg = SpecialReg::WarpIdInCta;
    execute(i, 1, ActiveMask::all(), cta_, gmem_, launch_);
    EXPECT_EQ(cta_.readReg(32 + 3, 0), 1u);
}

TEST_F(FuncTest, MultiDimTid)
{
    LaunchParams lp;
    lp.grid = Dim3(2, 2);
    lp.cta = Dim3(8, 4, 2); // 64 threads
    lp.params = {};
    CtaFuncState c2;
    c2.init(0, Dim3(1, 1, 0), 64, 4, 0);
    Instruction i;
    i.op = Opcode::S2R;
    i.dst = 0;
    i.sreg = SpecialReg::TidY;
    execute(i, 0, ActiveMask::all(), c2, gmem_, lp);
    // thread 13 = (x=5, y=1, z=0)
    EXPECT_EQ(c2.readReg(13, 0), 1u);
    i.sreg = SpecialReg::TidZ;
    execute(i, 1, ActiveMask::all(), c2, gmem_, lp);
    // thread 40 = (x=0, y=1, z=1)
    EXPECT_EQ(c2.readReg(40, 0), 1u);
}

TEST_F(FuncTest, LoadParam)
{
    Instruction i;
    i.op = Opcode::LDP;
    i.dst = 0;
    i.useImm = true;
    i.imm = 1;
    run(i);
    EXPECT_EQ(cta_.readReg(0, 0), 222u);
}

TEST_F(FuncTest, GlobalLoadStoreAndAccessList)
{
    setAllLanes(0, 0x2000);
    gmem_.write32(0x2000, 0xdeadbeef);
    Instruction ld;
    ld.op = Opcode::LDG;
    ld.dst = 1;
    ld.src[0] = 0;
    ld.imm = 0;
    auto res = run(ld);
    EXPECT_EQ(cta_.readReg(0, 1), 0xdeadbeefu);
    EXPECT_EQ(res.globalAccesses.size(), warpSize);
    EXPECT_EQ(res.globalAccesses[0].addr, 0x2000u);

    setAllLanes(2, 0x12345678);
    Instruction st;
    st.op = Opcode::STG;
    st.src[0] = 0;
    st.src[1] = 2;
    st.imm = 16;
    res = run(st);
    EXPECT_EQ(gmem_.read32(0x2010), 0x12345678u);
    EXPECT_EQ(res.globalAccesses.size(), warpSize);
}

TEST_F(FuncTest, AtomicAddReturnsOldAndSerialises)
{
    gmem_.write32(0x3000, 100);
    setAllLanes(0, 0x3000);
    setAllLanes(1, 1);
    Instruction at;
    at.op = Opcode::ATOMG_ADD;
    at.dst = 2;
    at.src[0] = 0;
    at.src[1] = 1;
    run(at);
    // Lanes apply in lane order: lane i sees old value 100 + i.
    EXPECT_EQ(cta_.readReg(0, 2), 100u);
    EXPECT_EQ(cta_.readReg(31, 2), 131u);
    EXPECT_EQ(gmem_.read32(0x3000), 132u);
}

TEST_F(FuncTest, SharedLoadStore)
{
    setAllLanes(0, 8); // byte address in shared
    setAllLanes(1, 0xabcd);
    Instruction st;
    st.op = Opcode::STS;
    st.src[0] = 0;
    st.src[1] = 1;
    run(st);
    EXPECT_EQ(cta_.readShared32(8), 0xabcdu);

    Instruction ld;
    ld.op = Opcode::LDS;
    ld.dst = 2;
    ld.src[0] = 0;
    auto res = run(ld);
    EXPECT_EQ(cta_.readReg(0, 2), 0xabcdu);
    EXPECT_EQ(res.sharedAccesses.size(), warpSize);
}

TEST_F(FuncTest, OutOfRangeSharedIsBenign)
{
    setAllLanes(0, 100000); // way past the 256-byte allocation
    Instruction ld;
    ld.op = Opcode::LDS;
    ld.dst = 1;
    ld.src[0] = 0;
    EXPECT_NO_THROW(run(ld));
    EXPECT_EQ(cta_.readReg(0, 1), 0u);
}

TEST_F(FuncTest, BranchTakenMask)
{
    for (std::uint32_t lane = 0; lane < warpSize; ++lane)
        setLane(lane, 0, lane % 2);
    Instruction br;
    br.op = Opcode::BRA;
    br.src[0] = 0;
    br.branchTarget = 5;
    br.reconvergePc = 5;
    const auto res = run(br);
    EXPECT_EQ(res.branchTaken.count(), warpSize / 2);
    EXPECT_FALSE(res.branchTaken.test(0));
    EXPECT_TRUE(res.branchTaken.test(1));
}

TEST_F(FuncTest, UnconditionalBranchTakesAllActiveLanes)
{
    Instruction br;
    br.op = Opcode::BRA;
    br.branchTarget = 5;
    br.reconvergePc = 5;
    const auto res = run(br, ActiveMask::firstLanes(10));
    EXPECT_EQ(res.branchTaken.count(), 10u);
}

TEST_F(FuncTest, InactiveLanesUntouched)
{
    setAllLanes(0, 1);
    setAllLanes(1, 99);
    Instruction i = alu(Opcode::IADD, 1, 0, 0);
    run(i, ActiveMask::firstLanes(4));
    EXPECT_EQ(cta_.readReg(3, 1), 2u);
    EXPECT_EQ(cta_.readReg(4, 1), 99u); // lane 4 inactive
}

TEST_F(FuncTest, TailWarpLanesBeyondCtaIgnored)
{
    CtaFuncState small;
    small.init(0, Dim3(0, 0, 0), 40, 4, 0); // warp 1 has 8 live threads
    for (std::uint32_t t = 0; t < 40; ++t)
        small.writeReg(t, 0, 7);
    Instruction i = alu(Opcode::IADD, 1, 0, 0);
    const auto res = execute(i, 1, ActiveMask::all(), small, gmem_,
                             launch_);
    (void)res;
    EXPECT_EQ(small.readReg(39, 1), 14u); // last live thread computed
}

} // namespace
} // namespace vtsim
