/**
 * @file
 * Unit tests for GpuConfig: presets, validation, printing.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/aggregate_arity.hh"
#include "common/log.hh"
#include "config/gpu_config.hh"
#include "config/sim_mode.hh"

namespace vtsim {
namespace {

TEST(GpuConfig, AggregateArityCountsMembers)
{
    struct Three
    {
        bool a;
        std::uint64_t b;
        double c;
    };
    static_assert(aggregateArity<Three>() == 3);
    struct Empty
    {};
    static_assert(aggregateArity<Empty>() == 0);
}

TEST(GpuConfig, PresetsValidate)
{
    EXPECT_NO_THROW(GpuConfig::fermiLike().validate());
    EXPECT_NO_THROW(GpuConfig::keplerLike().validate());
    EXPECT_NO_THROW(GpuConfig::testMini().validate());
}

TEST(GpuConfig, FermiShape)
{
    const GpuConfig cfg = GpuConfig::fermiLike();
    EXPECT_EQ(cfg.numSms, 15u);
    EXPECT_EQ(cfg.maxWarpsPerSm, 48u);
    EXPECT_EQ(cfg.maxCtasPerSm, 8u);
    EXPECT_EQ(cfg.maxThreadsPerSm, 1536u);
    EXPECT_EQ(cfg.registersPerSm, 32768u);
    EXPECT_EQ(cfg.sharedMemPerSm, 48u * 1024);
    EXPECT_FALSE(cfg.vtEnabled);
}

TEST(GpuConfig, KeplerIsBigger)
{
    const GpuConfig f = GpuConfig::fermiLike();
    const GpuConfig k = GpuConfig::keplerLike();
    EXPECT_GT(k.maxWarpsPerSm, f.maxWarpsPerSm);
    EXPECT_GT(k.maxCtasPerSm, f.maxCtasPerSm);
    EXPECT_GT(k.registersPerSm, f.registersPerSm);
}

TEST(GpuConfig, EffectiveLimitsScaleWithMultiplier)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.schedLimitMultiplier = 2;
    EXPECT_EQ(cfg.effMaxWarpsPerSm(), 96u);
    EXPECT_EQ(cfg.effMaxCtasPerSm(), 16u);
    EXPECT_EQ(cfg.effMaxThreadsPerSm(), 3072u);
}

TEST(GpuConfig, RejectsZeroSms)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.numSms = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(GpuConfig, RejectsMismatchedLineSizes)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.l2LineSize = 64;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(GpuConfig, RejectsNonPow2LineSize)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.l1LineSize = 100;
    cfg.l2LineSize = 100;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(GpuConfig, RejectsIndivisibleCacheShape)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.l1Size = 1000;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(GpuConfig, RejectsNonPow2SharedBanks)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.sharedMemBanks = 12;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(GpuConfig, RejectsVtBudgetBelowSchedulingLimit)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.vtEnabled = true;
    cfg.vtMaxVirtualCtasPerSm = 4; // < maxCtasPerSm = 8
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(GpuConfig, RejectsVtPlusMultiplier)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.vtEnabled = true;
    cfg.schedLimitMultiplier = 2;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(GpuConfig, RejectsZeroMultiplier)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.schedLimitMultiplier = 0;
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(GpuConfig, VtBudgetZeroMeansCapacityBound)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.vtEnabled = true;
    cfg.vtMaxVirtualCtasPerSm = 0;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(GpuConfig, PrintMentionsKeyParameters)
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.vtEnabled = true;
    std::ostringstream os;
    cfg.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("SMs"), std::string::npos);
    EXPECT_NE(out.find("48"), std::string::npos);
    EXPECT_NE(out.find("Virtual Thread"), std::string::npos);
    EXPECT_NE(out.find("ENABLED"), std::string::npos);
    EXPECT_NE(out.find("swap"), std::string::npos);
}

TEST(GpuConfig, PolicyNames)
{
    EXPECT_EQ(toString(SchedulerPolicy::LooseRoundRobin), "lrr");
    EXPECT_EQ(toString(SchedulerPolicy::GreedyThenOldest), "gto");
    EXPECT_EQ(toString(SchedulerPolicy::TwoLevel), "two-level");
    EXPECT_EQ(toString(VtSwapTrigger::AllWarpsStalled),
              "all-warps-stalled");
    EXPECT_EQ(toString(VtSwapTrigger::AnyWarpStalled), "any-warp-stalled");
    EXPECT_EQ(toString(VtSwapInPolicy::ReadyFirst), "ready-first");
    EXPECT_EQ(toString(VtSwapInPolicy::OldestFirst), "oldest-first");
}

TEST(SimMode, MatrixAcceptsValidCombinations)
{
    EXPECT_TRUE(validateSimMode({}).empty());

    SimModeSpec replay_resume; // Replay checkpoints resume in replay.
    replay_resume.replayTrace = true;
    replay_resume.restore = true;
    EXPECT_TRUE(validateSimMode(replay_resume).empty());

    SimModeSpec corun_ckpt; // Co-runs checkpoint and preempt freely.
    corun_ckpt.numGrids = 3;
    corun_ckpt.checkpointEvery = 1000;
    corun_ckpt.restore = true;
    EXPECT_TRUE(validateSimMode(corun_ckpt).empty());

    SimModeSpec preempt_vt;
    preempt_vt.numGrids = 2;
    preempt_vt.preemptPolicy = true;
    preempt_vt.vtEnabled = true;
    EXPECT_TRUE(validateSimMode(preempt_vt).empty());

    // Preempt policy with one grid degenerates to a solo run; no VT
    // machine is needed because nothing ever preempts.
    SimModeSpec solo_preempt;
    solo_preempt.preemptPolicy = true;
    EXPECT_TRUE(validateSimMode(solo_preempt).empty());
}

TEST(SimMode, MatrixRejectsInvalidCombinations)
{
    SimModeSpec record_replay;
    record_replay.recordTrace = true;
    record_replay.replayTrace = true;
    EXPECT_FALSE(validateSimMode(record_replay).empty());
    EXPECT_THROW(requireValidSimMode(record_replay), FatalError);

    SimModeSpec record_corun;
    record_corun.recordTrace = true;
    record_corun.numGrids = 2;
    EXPECT_FALSE(validateSimMode(record_corun).empty());

    SimModeSpec record_ckpt;
    record_ckpt.recordTrace = true;
    record_ckpt.checkpointEvery = 500;
    EXPECT_FALSE(validateSimMode(record_ckpt).empty());

    SimModeSpec record_restore;
    record_restore.recordTrace = true;
    record_restore.restore = true;
    EXPECT_FALSE(validateSimMode(record_restore).empty());

    SimModeSpec replay_corun;
    replay_corun.replayTrace = true;
    replay_corun.numGrids = 2;
    EXPECT_FALSE(validateSimMode(replay_corun).empty());

    SimModeSpec preempt_no_vt;
    preempt_no_vt.numGrids = 2;
    preempt_no_vt.preemptPolicy = true;
    EXPECT_FALSE(validateSimMode(preempt_no_vt).empty());
}

} // namespace
} // namespace vtsim
