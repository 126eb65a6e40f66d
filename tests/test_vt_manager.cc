/**
 * @file
 * Unit tests for the VirtualThreadManager state machine, driven through a
 * mock VtCtaQuery so every trigger condition is controllable.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/log.hh"
#include "core/virtual_thread.hh"

namespace vtsim {
namespace {

/** Scriptable CTA observations. Like SmCore, the mock reports every
 *  zero/non-zero flip of a CTA's off-chip total to the attached manager,
 *  so the manager's cached swap-in readiness stays exact. */
class MockQuery : public VtCtaQuery
{
  public:
    struct CtaObs
    {
        bool fullyStalled = false;
        bool longStalled = false;
    };

    void attach(VirtualThreadManager &mgr) { mgr_ = &mgr; }

    bool
    ctaFullyStalled(VirtualCtaId id) const override
    {
        ++polls;
        return obs_.at(id).fullyStalled;
    }

    bool
    ctaAnyWarpLongStalled(VirtualCtaId id) const override
    {
        ++polls;
        return obs_.at(id).longStalled;
    }

    std::uint32_t
    ctaPendingOffChip(VirtualCtaId id) const override
    {
        const auto it = pending_.find(id);
        return it == pending_.end() ? 0 : it->second;
    }

    /** Set resident CTA @p id's outstanding off-chip transactions. */
    void
    setPending(VirtualCtaId id, std::uint32_t n)
    {
        const bool was_ready = ctaPendingOffChip(id) == 0;
        pending_[id] = n;
        if (mgr_ && was_ready != (n == 0))
            mgr_->onCtaReadinessChanged(id, n == 0);
    }

    /** CTA @p id's answers, for the caller to change: the manager is
     *  told they may flip, as SmCore reports every flip. */
    CtaObs &
    operator[](VirtualCtaId id)
    {
        if (mgr_)
            mgr_->onCtaStallChanged(id);
        return obs_[id];
    }

    /** Stall queries answered so far. */
    mutable std::uint64_t polls = 0;

  private:
    std::map<VirtualCtaId, CtaObs> obs_;
    std::map<VirtualCtaId, std::uint32_t> pending_;
    VirtualThreadManager *mgr_ = nullptr;
};

/** Small machine: 2 CTA slots, 8 warp slots, capacity for ~6 CTAs. */
GpuConfig
vtConfig()
{
    GpuConfig cfg = GpuConfig::testMini();
    cfg.maxCtasPerSm = 2;
    cfg.maxWarpsPerSm = 8;
    cfg.maxThreadsPerSm = 256;
    cfg.registersPerSm = 6 * 1024; // 6 CTAs of the footprint below
    cfg.vtEnabled = true;
    cfg.vtMaxVirtualCtasPerSm = 6;
    cfg.vtSwapOutLatency = 5;
    cfg.vtSwapInLatency = 5;
    cfg.vtStallThreshold = 2;
    return cfg;
}

CtaFootprint
footprint()
{
    CtaFootprint fp;
    fp.warpsPerCta = 2;
    fp.threadsPerCta = 64;
    fp.regsPerCta = 1024;
    fp.sharedPerCta = 0;
    return fp;
}

/** Stall a CTA long enough (threshold cycles) to arm the trigger. */
void
stall(MockQuery &q, VirtualCtaId id, std::uint32_t pending = 2)
{
    q[id].fullyStalled = true;
    q[id].longStalled = true;
    q.setPending(id, pending);
}

class VtManagerTest : public ::testing::Test
{
  protected:
    VtManagerTest() : cfg_(vtConfig()), mgr_(cfg_, query_, 0)
    {
        query_.attach(mgr_);
        mgr_.configureKernel(footprint());
    }

    GpuConfig cfg_;
    MockQuery query_;
    VirtualThreadManager mgr_;
};

TEST_F(VtManagerTest, AdmitsPastSchedulingLimitUpToBudget)
{
    for (VirtualCtaId id = 0; id < 6; ++id) {
        query_[id] = {};
        ASSERT_TRUE(mgr_.canAdmit()) << "cta " << id;
        mgr_.onAdmit(id, 0);
    }
    EXPECT_FALSE(mgr_.canAdmit()); // budget of 6 exhausted
    EXPECT_EQ(mgr_.residentCtas(), 6u);
    EXPECT_EQ(mgr_.activeCtas(), 2u); // scheduling limit
}

TEST_F(VtManagerTest, BaselineRespectsSchedulingLimit)
{
    GpuConfig base = vtConfig();
    base.vtEnabled = false;
    MockQuery q;
    VirtualThreadManager mgr(base, q, 0);
    mgr.configureKernel(footprint());
    q[0] = {};
    q[1] = {};
    mgr.onAdmit(0, 0);
    mgr.onAdmit(1, 0);
    EXPECT_FALSE(mgr.canAdmit()); // 2 CTA slots
    EXPECT_TRUE(mgr.isIssuable(0));
    EXPECT_TRUE(mgr.isIssuable(1));
}

TEST_F(VtManagerTest, CapacityBindsAdmission)
{
    GpuConfig cfg = vtConfig();
    cfg.registersPerSm = 3 * 1024; // only 3 CTAs fit
    MockQuery q;
    VirtualThreadManager mgr(cfg, q, 0);
    mgr.configureKernel(footprint());
    for (VirtualCtaId id = 0; id < 3; ++id) {
        q[id] = {};
        ASSERT_TRUE(mgr.canAdmit());
        mgr.onAdmit(id, 0);
    }
    EXPECT_FALSE(mgr.canAdmit());
    EXPECT_EQ(mgr.regsInUse(), 3072u);
}

TEST_F(VtManagerTest, FreshCtasActivateImmediately)
{
    query_[0] = {};
    query_[1] = {};
    query_[2] = {};
    mgr_.onAdmit(0, 0);
    mgr_.onAdmit(1, 0);
    mgr_.onAdmit(2, 0);
    EXPECT_TRUE(mgr_.isIssuable(0));
    EXPECT_TRUE(mgr_.isIssuable(1));
    EXPECT_FALSE(mgr_.isIssuable(2)); // inactive: no slot
    EXPECT_EQ(mgr_.state(2), CtaState::Inactive);
}

TEST_F(VtManagerTest, SwapOnAllWarpsStalled)
{
    for (VirtualCtaId id = 0; id < 3; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    stall(query_, 0);
    // Two ticks to satisfy the stall threshold, then the swap fires.
    mgr_.tick(1);
    mgr_.tick(2);
    mgr_.tick(3);
    EXPECT_EQ(mgr_.state(0), CtaState::SwappingOut);
    EXPECT_EQ(mgr_.state(2), CtaState::SwappingIn);
    EXPECT_EQ(mgr_.swapOuts(), 1u);
    EXPECT_FALSE(mgr_.isIssuable(0));
    EXPECT_FALSE(mgr_.isIssuable(2));

    // Swap-out completes after 5 cycles; swap-in after 10.
    mgr_.tick(9);
    EXPECT_EQ(mgr_.state(0), CtaState::Inactive);
    EXPECT_EQ(mgr_.state(2), CtaState::SwappingIn);
    mgr_.tick(14);
    EXPECT_EQ(mgr_.state(2), CtaState::Active);
    EXPECT_TRUE(mgr_.isIssuable(2));
}

TEST_F(VtManagerTest, NoSwapWithoutReadyCandidate)
{
    for (VirtualCtaId id = 0; id < 3; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    stall(query_, 0);
    query_.setPending(2, 4); // the only inactive CTA is not ready
    for (Cycle c = 1; c < 10; ++c)
        mgr_.tick(c);
    EXPECT_EQ(mgr_.swapOuts(), 0u);
    EXPECT_EQ(mgr_.state(0), CtaState::Active);
}

TEST_F(VtManagerTest, OldestFirstIgnoresReadiness)
{
    GpuConfig cfg = vtConfig();
    cfg.vtSwapInPolicy = VtSwapInPolicy::OldestFirst;
    MockQuery q;
    VirtualThreadManager mgr(cfg, q, 0);
    q.attach(mgr);
    mgr.configureKernel(footprint());
    for (VirtualCtaId id = 0; id < 3; ++id) {
        q[id] = {};
        mgr.onAdmit(id, 0);
    }
    stall(q, 0);
    q.setPending(2, 4); // not ready, but OldestFirst takes it anyway
    mgr.tick(1);
    mgr.tick(2);
    mgr.tick(3);
    EXPECT_EQ(mgr.swapOuts(), 1u);
    EXPECT_EQ(mgr.state(2), CtaState::SwappingIn);
}

TEST_F(VtManagerTest, AnyWarpTriggerFiresWithoutFullStall)
{
    GpuConfig cfg = vtConfig();
    cfg.vtSwapTrigger = VtSwapTrigger::AnyWarpStalled;
    MockQuery q;
    VirtualThreadManager mgr(cfg, q, 0);
    mgr.configureKernel(footprint());
    for (VirtualCtaId id = 0; id < 3; ++id) {
        q[id] = {};
        mgr.onAdmit(id, 0);
    }
    // CTA 0: long-stalled warp but NOT fully stalled.
    q[0].fullyStalled = true; // needed to advance the stall streak
    q[0].longStalled = true;
    mgr.tick(1);
    mgr.tick(2);
    mgr.tick(3);
    EXPECT_EQ(mgr.swapOuts(), 1u);
}

TEST_F(VtManagerTest, AllWarpsTriggerNeedsFullStall)
{
    for (VirtualCtaId id = 0; id < 3; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    query_[0].longStalled = true; // one warp stalled, others issuable
    query_[0].fullyStalled = false;
    for (Cycle c = 1; c < 10; ++c)
        mgr_.tick(c);
    EXPECT_EQ(mgr_.swapOuts(), 0u);
}

TEST_F(VtManagerTest, StallThresholdDebounces)
{
    for (VirtualCtaId id = 0; id < 3; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    stall(query_, 0);
    mgr_.tick(1); // streak = 1 < threshold 2
    EXPECT_EQ(mgr_.swapOuts(), 0u);
    query_[0].fullyStalled = false; // recovers: streak resets
    mgr_.tick(2);
    stall(query_, 0);
    mgr_.tick(3);
    EXPECT_EQ(mgr_.swapOuts(), 0u);
}

TEST_F(VtManagerTest, FinishActivatesInactive)
{
    for (VirtualCtaId id = 0; id < 3; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    EXPECT_EQ(mgr_.state(2), CtaState::Inactive);
    mgr_.onCtaFinished(0, 100);
    EXPECT_EQ(mgr_.residentCtas(), 2u);
    // CTA 2 was never swapped: activates instantly.
    EXPECT_TRUE(mgr_.isIssuable(2));
    EXPECT_EQ(mgr_.activeCtas(), 2u);
}

TEST_F(VtManagerTest, SwappedCtaPaysRestoreLatencyAfterFinish)
{
    for (VirtualCtaId id = 0; id < 3; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    // Swap 0 out (2 in).
    stall(query_, 0);
    mgr_.tick(1);
    mgr_.tick(2);
    mgr_.tick(3);
    query_[0].fullyStalled = false;
    query_[0].longStalled = false;
    query_.setPending(0, 0);
    mgr_.tick(20); // transitions settle
    EXPECT_EQ(mgr_.state(0), CtaState::Inactive);
    // CTA 1 finishes: 0 comes back but must restore its state.
    mgr_.onCtaFinished(1, 30);
    EXPECT_EQ(mgr_.state(0), CtaState::SwappingIn);
    EXPECT_FALSE(mgr_.isIssuable(0));
    mgr_.tick(36);
    EXPECT_TRUE(mgr_.isIssuable(0));
}

TEST_F(VtManagerTest, SlotAccountingStaysWithinLimits)
{
    for (VirtualCtaId id = 0; id < 6; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    for (Cycle c = 1; c < 100; ++c) {
        // Randomly stall/unstall CTAs to churn swaps.
        for (VirtualCtaId id = 0; id < 6; ++id) {
            const bool st = ((c + id) % 7) < 3;
            query_[id].fullyStalled = st;
            query_[id].longStalled = st;
            query_.setPending(id, st ? 1 : 0);
        }
        mgr_.tick(c);
        mgr_.verifyDerivedState();
        EXPECT_LE(mgr_.activeCtas(), 2u);
        EXPECT_LE(mgr_.warpsActive(), 8u);
        EXPECT_LE(mgr_.threadsActive(), 256u);
    }
}

TEST_F(VtManagerTest, OnePairPerCycle)
{
    for (VirtualCtaId id = 0; id < 6; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    stall(query_, 0);
    stall(query_, 1);
    mgr_.tick(1);
    mgr_.tick(2); // both armed; only one swap initiated this tick
    EXPECT_EQ(mgr_.swapOuts(), 1u);
    mgr_.tick(3);
    EXPECT_EQ(mgr_.swapOuts(), 2u);
}

TEST_F(VtManagerTest, ReadinessFlipReachesWaitingVictim)
{
    for (VirtualCtaId id = 0; id < 4; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    stall(query_, 0);
    query_.setPending(2, 3); // both inactive CTAs still await data
    query_.setPending(3, 1);
    for (Cycle c = 1; c <= 4; ++c) {
        mgr_.tick(c);
        mgr_.verifyDerivedState();
    }
    // The victim is armed, but nobody is ready to run instead: only the
    // readiness notification can wake the manager.
    EXPECT_EQ(mgr_.swapOuts(), 0u);
    EXPECT_EQ(mgr_.nextEventCycle(5), neverCycle);

    // CTA 3 (the younger) turns ready; a flip back on CTA 2's side
    // changes nothing. The swap is due at the very next tick and brings
    // in the ready CTA, not the older waiting one.
    query_.setPending(3, 0);
    query_.setPending(2, 5);
    mgr_.verifyDerivedState();
    EXPECT_EQ(mgr_.nextEventCycle(5), 5u);
    mgr_.tick(5);
    mgr_.verifyDerivedState();
    EXPECT_EQ(mgr_.swapOuts(), 1u);
    EXPECT_EQ(mgr_.state(0), CtaState::SwappingOut);
    EXPECT_EQ(mgr_.state(3), CtaState::SwappingIn);
    EXPECT_EQ(mgr_.state(2), CtaState::Inactive);

    // CTA 3 loses readiness while swapping in: no effect on the pair,
    // and the notification for a non-inactive CTA keeps the lists exact.
    query_.setPending(3, 2);
    mgr_.verifyDerivedState();
    mgr_.tick(15);
    mgr_.verifyDerivedState();
    EXPECT_EQ(mgr_.state(3), CtaState::Active);
    EXPECT_EQ(mgr_.state(0), CtaState::Inactive);
}

TEST_F(VtManagerTest, StreakCrossesThresholdAcrossIdleWindow)
{
    cfg_.vtStallThreshold = 10;
    for (VirtualCtaId id = 0; id < 3; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    stall(query_, 0);
    // Per-cycle rule: the streak is 1 at the tick of cycle 1 and reaches
    // the threshold at cycle 10, fast-forwarded cycles included.
    for (Cycle c = 1; c <= 3; ++c)
        mgr_.tick(c);
    EXPECT_EQ(mgr_.nextEventCycle(4), 10u);
    mgr_.fastForwardIdle(4); // cycles 4..7
    mgr_.tick(8);
    mgr_.tick(9);
    mgr_.verifyDerivedState();
    EXPECT_EQ(mgr_.swapOuts(), 0u);
    EXPECT_EQ(mgr_.nextEventCycle(10), 10u);
    mgr_.tick(10);
    EXPECT_EQ(mgr_.swapOuts(), 1u);
    EXPECT_EQ(mgr_.state(0), CtaState::SwappingOut);
}

TEST_F(VtManagerTest, ObservedFlipResetsStreak)
{
    cfg_.vtStallThreshold = 10;
    for (VirtualCtaId id = 0; id < 3; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    stall(query_, 0);
    for (Cycle c = 1; c <= 5; ++c)
        mgr_.tick(c);
    // A flip and its reversal between two ticks is never observed: the
    // streak goes on.
    query_[0].fullyStalled = false;
    query_[0].fullyStalled = true;
    mgr_.tick(6);
    // Observed by the tick of cycle 7: the streak restarts at cycle 8.
    query_[0].fullyStalled = false;
    mgr_.tick(7);
    query_[0].fullyStalled = true;
    for (Cycle c = 8; c <= 16; ++c) {
        mgr_.tick(c);
        mgr_.verifyDerivedState();
        EXPECT_EQ(mgr_.swapOuts(), 0u) << "cycle " << c;
    }
    mgr_.tick(17);
    EXPECT_EQ(mgr_.swapOuts(), 1u);
}

TEST_F(VtManagerTest, ArmedVictimWaitsWithoutRepolling)
{
    for (VirtualCtaId id = 0; id < 3; ++id) {
        query_[id] = {};
        mgr_.onAdmit(id, 0);
    }
    stall(query_, 0);
    query_.setPending(2, 1); // the only inactive CTA awaits data
    mgr_.tick(1);
    mgr_.tick(2); // armed: the streak is at the threshold
    const std::uint64_t polls = query_.polls;
    for (Cycle c = 3; c < 50; ++c)
        mgr_.tick(c);
    EXPECT_EQ(query_.polls, polls); // nothing flipped, nothing re-polled
    EXPECT_EQ(mgr_.swapOuts(), 0u);
    EXPECT_EQ(mgr_.nextEventCycle(50), neverCycle);

    // The inactive CTA's data arrives: the swap fires on that cycle.
    query_.setPending(2, 0);
    EXPECT_EQ(mgr_.nextEventCycle(50), 50u);
    mgr_.tick(50);
    EXPECT_EQ(mgr_.swapOuts(), 1u);
    EXPECT_EQ(mgr_.state(0), CtaState::SwappingOut);
    EXPECT_EQ(mgr_.state(2), CtaState::SwappingIn);
}

TEST_F(VtManagerTest, StateQueriesValidate)
{
    query_[0] = {};
    mgr_.onAdmit(0, 0);
    EXPECT_EQ(mgr_.state(0), CtaState::Active);
    EXPECT_EQ(toString(CtaState::Active), "active");
    EXPECT_EQ(toString(CtaState::Inactive), "inactive");
    EXPECT_EQ(toString(CtaState::SwappingOut), "swapping-out");
    EXPECT_EQ(toString(CtaState::SwappingIn), "swapping-in");
}

} // namespace
} // namespace vtsim
