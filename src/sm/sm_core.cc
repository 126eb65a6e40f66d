#include "sm/sm_core.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/trace.hh"
#include "isa/disassembler.hh"
#include "func/global_memory.hh"
#include "sim/serialize_util.hh"
#include "telemetry/stat_registry.hh"
#include "telemetry/trace_json.hh"

namespace vtsim {

SmCore::SmCore(SmId id, const GpuConfig &config, Interconnect &noc)
    : id_(id), config_(config), ldst_(id, config, noc, *this),
      shmem_(config.sharedMemLatency, "sm" + std::to_string(id) + ".shmem"),
      vt_(config, *this, id),
      stats_("sm" + std::to_string(id))
{
    for (std::uint32_t s = 0; s < config.numSchedulers; ++s) {
        // Two-level active set: a quarter of the warp slots per scheduler.
        const std::uint32_t active_set =
            std::max(1u, config.effMaxWarpsPerSm() /
                             (4 * config.numSchedulers));
        schedulers_.emplace_back(config.schedulerPolicy, active_set);
    }
    ready_.resize(config.numSchedulers);
    classCount_.assign(config.numSchedulers, {});
    schedAlive_.assign(config.numSchedulers, 0);
    schedFrozenAlive_.assign(config.numSchedulers, 0);
    schedIssuableBarrier_.assign(config.numSchedulers, 0);
    schedIssuableOffchip_.assign(config.numSchedulers, 0);
    stats_.addCounter("instructions", &instructionsIssued_,
                      "warp instructions issued");
    stats_.addCounter("thread_instructions", &threadInstructions_,
                      "per-thread instructions (mask population)");
    stats_.addCounter("ctas_completed", &ctasCompleted_, "CTAs retired");
    for (GridId g = 0; g < maxGrids; ++g) {
        const std::string p = "grid" + std::to_string(g);
        stats_.addCounter(p + ".instructions", &gridInstructions_[g],
                          "warp instructions of grid " + std::to_string(g));
        stats_.addCounter(p + ".thread_instructions",
                          &gridThreadInstructions_[g],
                          "thread instructions of grid " +
                              std::to_string(g));
        stats_.addCounter(p + ".ctas_completed", &gridCtasCompleted_[g],
                          "CTAs of grid " + std::to_string(g) +
                              " retired");
    }
    stats_.addValue("issue.issued", &stalls_.issued,
                    "scheduler-cycles that issued");
    stats_.addValue("issue.bubbles.mem", &stalls_.memStall,
                    "scheduler-cycles blocked on off-chip memory");
    stats_.addValue("issue.bubbles.short", &stalls_.shortStall,
                    "scheduler-cycles blocked on short dependences/ports");
    stats_.addValue("issue.bubbles.barrier", &stalls_.barrierStall,
                    "scheduler-cycles with everyone parked at a barrier");
    stats_.addValue("issue.bubbles.swap", &stalls_.swapStall,
                    "scheduler-cycles with only swap-frozen CTAs resident");
    stats_.addValue("issue.bubbles.idle", &stalls_.idle,
                    "scheduler-cycles with no warps at all");
    if (config.throttleEnabled) {
        ThrottleParams tp;
        tp.epochCycles = config.throttleEpochCycles;
        tp.highWater = config.throttleHighWater;
        tp.lowWater = config.throttleLowWater;
        throttler_ = std::make_unique<CtaThrottler>(
            tp, config.effMaxCtasPerSm(), id);
    }
}

void
SmCore::registerTelemetry(telemetry::StatRegistry &reg)
{
    using telemetry::KernelStatRole;
    reg.addGroup(stats_);
    reg.setRole(stats_.name() + ".instructions",
                KernelStatRole::WarpInstructions);
    reg.setRole(stats_.name() + ".thread_instructions",
                KernelStatRole::ThreadInstructions);
    reg.setRole(stats_.name() + ".ctas_completed",
                KernelStatRole::CtasCompleted);
    reg.setRole(stats_.name() + ".issue.issued",
                KernelStatRole::StallIssued);
    reg.setRole(stats_.name() + ".issue.bubbles.mem",
                KernelStatRole::StallMem);
    reg.setRole(stats_.name() + ".issue.bubbles.short",
                KernelStatRole::StallShort);
    reg.setRole(stats_.name() + ".issue.bubbles.barrier",
                KernelStatRole::StallBarrier);
    reg.setRole(stats_.name() + ".issue.bubbles.swap",
                KernelStatRole::StallSwap);
    reg.setRole(stats_.name() + ".issue.bubbles.idle",
                KernelStatRole::StallIdle);

    reg.addGroup(vt_.stats());
    reg.setRole(vt_.stats().name() + ".swap_outs", KernelStatRole::SwapOuts);
    reg.setRole(vt_.stats().name() + ".swap_ins", KernelStatRole::SwapIns);

    reg.addGroup(ldst_.stats());
    reg.addGroup(ldst_.l1().stats());
    reg.setRole(ldst_.l1().stats().name() + ".hits",
                KernelStatRole::L1Hits);
    reg.setRole(ldst_.l1().stats().name() + ".misses",
                KernelStatRole::L1Misses);

    // Per-grid splits (concurrent launches): same roles, tagged with the
    // grid so StatsSnapshot::deltaGrid can assemble per-grid KernelStats.
    for (GridId g = 0; g < maxGrids; ++g) {
        const std::string p = ".grid" + std::to_string(g);
        reg.setRole(stats_.name() + p + ".instructions",
                    KernelStatRole::WarpInstructions, g);
        reg.setRole(stats_.name() + p + ".thread_instructions",
                    KernelStatRole::ThreadInstructions, g);
        reg.setRole(stats_.name() + p + ".ctas_completed",
                    KernelStatRole::CtasCompleted, g);
        reg.setRole(vt_.stats().name() + p + ".swap_outs",
                    KernelStatRole::SwapOuts, g);
        reg.setRole(vt_.stats().name() + p + ".swap_ins",
                    KernelStatRole::SwapIns, g);
        reg.setRole(ldst_.l1().stats().name() + p + ".hits",
                    KernelStatRole::L1Hits, g);
        reg.setRole(ldst_.l1().stats().name() + p + ".misses",
                    KernelStatRole::L1Misses, g);
    }

    reg.addGroup(shmem_.stats());
    if (throttler_)
        reg.addGroup(throttler_->stats());
}

void
SmCore::setTraceJson(telemetry::TraceJsonWriter *writer)
{
    traceJson_ = writer;
    vt_.setTraceJson(writer);
}

void
SmCore::setMtrace(MtraceWriter *writer)
{
    mtrace_ = writer;
    ldst_.setMtraceWriter(writer);
}

void
SmCore::beginReplay(const std::vector<MtraceAccess> *slice, Cycle base)
{
    VTSIM_ASSERT(residentCount_ == 0, "replay with CTAs resident");
    onExternalEvent();
    replayMode_ = true;
    replay_ = slice;
    replayCursor_ = 0;
    replayBase_ = base;
}

void
SmCore::resumeReplay(const std::vector<MtraceAccess> *slice)
{
    VTSIM_ASSERT(replayMode_, "resumeReplay on a functional-mode SM");
    VTSIM_ASSERT(replayCursor_ <= slice->size(),
                 "restored replay cursor past the trace slice");
    replay_ = slice;
}

void
SmCore::beginGridBinding(GlobalMemory &gmem)
{
    VTSIM_ASSERT(residentCount_ == 0, "kernel launch with CTAs resident");
    onExternalEvent();
    grids_.clear();
    gmem_ = &gmem;

    // Active CTAs respect the scheduling limit, so no ready list can
    // hold more than effMaxWarpsPerSm() warps: size them once here
    // instead of growing them over the first ticks.
    for (auto &list : ready_)
        list.reserve(config_.effMaxWarpsPerSm());
}

void
SmCore::bindGrid(GridId grid, const Kernel &kernel,
                 const LaunchParams &launch)
{
    VTSIM_ASSERT(grid < maxGrids, "grid id ", grid, " out of range");
    if (grid >= grids_.size())
        grids_.resize(grid + 1);
    grids_[grid].kernel = &kernel;
    grids_[grid].launch = &launch;

    const std::uint32_t warps_per_cta = launch.warpsPerCta();
    const std::uint32_t regs_per_warp =
        roundUp(std::uint64_t(kernel.regsPerThread()) * warpSize,
                config_.regAllocGranularity);
    CtaFootprint fp;
    fp.warpsPerCta = warps_per_cta;
    fp.threadsPerCta = launch.threadsPerCta();
    fp.regsPerCta = warps_per_cta * regs_per_warp;
    fp.sharedPerCta = roundUp(kernel.sharedBytesPerCta(),
                              config_.sharedAllocGranularity);

    if (fp.warpsPerCta > config_.effMaxWarpsPerSm() ||
        fp.threadsPerCta > config_.effMaxThreadsPerSm()) {
        VTSIM_FATAL("CTA shape of kernel '", kernel.name(),
                    "' exceeds the SM scheduling limit");
    }
    if (fp.regsPerCta > config_.registersPerSm ||
        fp.sharedPerCta > config_.sharedMemPerSm) {
        VTSIM_FATAL("one CTA of kernel '", kernel.name(),
                    "' exceeds the SM capacity limit");
    }
    vt_.configureGrid(grid, fp);
}

bool
SmCore::canAdmitCta(GridId grid) const
{
    return grid < grids_.size() && grids_[grid].kernel != nullptr &&
           vt_.canAdmit(grid);
}

void
SmCore::admitCta(const CtaAssignment &assignment, Cycle now, GridId grid)
{
    VTSIM_ASSERT(canAdmitCta(grid), "admitCta without canAdmitCta");
    onExternalEvent();
    lastBusy_ = now;

    VirtualCtaId slot;
    if (!freeSlots_.empty()) {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
    } else {
        slot = ctas_.size();
        ctas_.emplace_back();
    }

    const Kernel &kernel = *grids_[grid].kernel;
    const LaunchParams &launch = *grids_[grid].launch;
    VirtualCta &cta = ctas_[slot];
    cta.valid = true;
    cta.grid = grid;
    cta.age = nextCtaAge_++;
    cta.pendingOffChipTotal = 0;
    const std::uint32_t tpc = launch.threadsPerCta();
    cta.func.init(assignment.linearId, assignment.idx, tpc,
                  kernel.regsPerThread(), kernel.sharedBytesPerCta());

    const std::uint32_t warps = launch.warpsPerCta();
    cta.warps.assign(warps, WarpContext());
    VTSIM_ASSERT(readyKeyFits(cta, slot),
                 "ready-list key fields overflow at CTA slot ", slot);
    cta.listed.assign(warps, 0);
    cta.readyMembers = 0;
    cta.readyOffchip = 0;
    cta.offchipWarps = 0;
    cta.warpsAlive = warps;
    cta.schedWarps.assign(config_.numSchedulers, {});
    cta.aliveBySched.assign(config_.numSchedulers, 0);
    cta.barrierBySched.assign(config_.numSchedulers, 0);
    cta.offchipBySched.assign(config_.numSchedulers, 0);
    for (std::uint32_t w = 0; w < warps; ++w) {
        const std::uint32_t first = w * warpSize;
        const std::uint32_t live = std::min(warpSize, tpc - first);
        const std::uint32_t sched =
            (cta.age * warps + w) % config_.numSchedulers;
        cta.warps[w].init(slot, w, ActiveMask::firstLanes(live),
                          kernel.regsPerThread(), sched);
        cta.schedWarps[sched].push_back(w);
        ++cta.aliveBySched[sched];
    }
    // The CTA enters the aggregates as frozen (it is admitted Inactive);
    // onAdmit may activate it at once, which fires onCtaIssuableChanged
    // and moves the counters over and publishes the warps.
    for (std::uint32_t s = 0; s < config_.numSchedulers; ++s) {
        schedAlive_[s] += cta.aliveBySched[s];
        schedFrozenAlive_[s] += cta.aliveBySched[s];
    }

    ++residentCount_;
    barriers_.ctaLaunched(slot);
    vt_.onAdmit(slot, now, grid);
}

std::uint32_t
SmCore::forcePreemptGrid(GridId grid, std::uint32_t max_ctas, Cycle now)
{
    onExternalEvent();
    std::uint32_t swapped = 0;
    for (VirtualCtaId slot = 0;
         slot < ctas_.size() && swapped < max_ctas; ++slot) {
        const VirtualCta &cta = ctas_[slot];
        if (!cta.valid || cta.grid != grid)
            continue;
        if (vt_.state(slot) != CtaState::Active)
            continue;
        vt_.forceSwapOut(slot, now);
        ++swapped;
    }
    return swapped;
}

bool
SmCore::hasInactiveCta(GridId grid) const
{
    for (VirtualCtaId slot = 0; slot < ctas_.size(); ++slot) {
        const VirtualCta &cta = ctas_[slot];
        if (cta.valid && cta.grid == grid && !vt_.isIssuable(slot))
            return true;
    }
    return false;
}

void
SmCore::tick(Cycle now)
{
#ifndef NDEBUG
    VTSIM_ASSERT(epochOwner_ == std::thread::id{} ||
                     epochOwner_ == std::this_thread::get_id(),
                 "SM ", id_, " ticked from a non-owning shard worker");
#endif
    if (now < ffHorizon_) {
        // Provably eventless tick (the horizon was cached from this
        // very state and every external change drops it): just count
        // the cycle; flushFastForward() settles the books in bulk.
        if (ffPending_ == 0)
            ffWindowStart_ = now;
        ++ffPending_;
        return;
    }
    settleWindow();
    now_ = now;
    if (classesStale_)
        rebuildClasses();

    // 1. Memory completions (unblocks warps for this cycle's issue).
    ldst_.tick(now);

    // Trace replay: inject the records due this cycle. After the LDST
    // tick, so a record stamped cycle c enters the queue at c and first
    // reaches injectOne at c + 1 — the same cadence as a functional
    // issue at c.
    if (replayMode_) {
        while (replayCursor_ < replay_->size() &&
               replayBase_ + (*replay_)[replayCursor_].cycle <= now) {
            ldst_.replayInject((*replay_)[replayCursor_]);
            ++replayCursor_;
        }
    }

    // 2. ALU/SFU/shared writebacks that mature this cycle.
    for (std::deque<Writeback> &fifo : wbFifos_) {
        while (!fifo.empty() && fifo.front().at <= now) {
            const Writeback wb = fifo.front();
            fifo.pop_front();
            ctas_[wb.vcta].warps[wb.warpInCta].scoreboard().release(wb.reg);
            refreshWarp(wb.vcta, wb.warpInCta);
        }
    }

    // 3. Virtual Thread state machine: swap completions and decisions,
    //    based on the state warps are in *before* this cycle's issue.
    vt_.tick(now);

    if (oracleEnabled())
        verifyReadySets();

    // 4. Issue: each scheduler walks its ready list in policy order and
    //    stops at the first warp that can issue. When none can, the walk
    //    has visited every listed warp exactly once, and the bubble
    //    attribution it gathered on the way classifies the empty slot
    //    (the outcome is identical to countedBubble()).
    const StallBreakdown before_issue = stalls_;
    IssueBudgets budgets{~0u, config_.aluThroughputPerSm,
                         config_.sfuThroughputPerSm,
                         config_.ldstThroughputPerSm};
    lateReady_ = false;
    for (std::uint32_t s = 0; s < config_.numSchedulers; ++s) {
        // Structural ports are constant within one scheduler's walk
        // (issues by earlier schedulers already happened): hoist.
        const PortsOpen open{true, true, true, ldst_.canAccept(),
                             shmem_.canAccept(now)};
        // When every listed class is blocked by its port or a spent
        // budget, the counts classify the bubble without a walk.
        if (!lateReady_ && !anyClassIssuable(s, open, budgets)) {
            chargeBubble(countedBubble(s, open), 1);
            continue;
        }
        bool mem_blocked = false;
        std::uint32_t ready_offchip = 0;
        const auto can_issue = [&](std::uint64_t key) {
            const VirtualCta &cta = ctas_[readySlot(key)];
            const std::uint32_t w = readyWarp(key);
            const std::uint8_t cls = cta.listed[w] - 1;
            const bool ready = cta.warps[w].readyAt() <= now && open[cls];
            if (cta.warps[w].pendingOffChip() > 0) {
                ++ready_offchip;
                mem_blocked = mem_blocked || !ready;
            }
            return ready && budgets[budgetSlot[cls]] > 0;
        };
        const std::size_t chosen = schedulers_[s].select(ready_[s], can_issue);
        if (chosen == ready_[s].size()) {
            chargeBubble(bubbleKind(s, mem_blocked, ready_offchip), 1);
            continue;
        }
        const std::uint64_t key = ready_[s][chosen];
        const VirtualCtaId slot = readySlot(key);
        VirtualCta &cta = ctas_[slot];
        WarpContext &warp = cta.warps[readyWarp(key)];
        --budgets[budgetSlot[cta.listed[readyWarp(key)] - 1]];
        ++stalls_.issued;
        issueWarp(cta, slot, warp, kernelOf(cta)->at(warp.stack().pc()),
                  now);
    }

    // 5. DYNCTA-style throttling: feed this cycle's observation into the
    //    epoch machinery and apply the (possibly new) active-CTA cap.
    if (throttler_) {
        const bool issued = stalls_.issued != before_issue.issued;
        const bool mem = stalls_.memStall != before_issue.memStall;
        throttler_->sample(issued, !issued && mem);
        vt_.setActiveCap(throttler_->cap());
    }

    // 6. A tick that issued nothing is a candidate for a lazy window:
    //    cache how far the following ticks are provably inert. This is
    //    nextEventCycle(now + 1) minus its warp scan, which is provably
    //    empty here: readyAt is only ever set to cycle+1 at an issue or
    //    barrier release, so after a no-issue tick no live warp has
    //    readyAt > now — and none could issue (every scheduler's walk
    //    found none; the one state that can flip by now + 1, the shared
    //    memory port, is covered by the portReadyAt term below).
    if (config_.fastForwardEnabled &&
        stalls_.issued == before_issue.issued) {
        Cycle next = std::min(ldst_.nextEventCycle(now + 1),
                              std::max(now + 1, nextWriteback()));
        if (shmem_.portReadyAt() > now)
            next = std::min(next, shmem_.portReadyAt());
        if (throttler_)
            next = std::min(next,
                            throttler_->epochBoundaryCycle(now + 1));
        if (replayMode_ && replayCursor_ < replay_->size()) {
            next = std::min(next,
                            std::max(now + 1,
                                     replayBase_ +
                                         (*replay_)[replayCursor_].cycle));
        }
        ffHorizon_ = std::min(next, vt_.nextEventCycle(now + 1));
    } else {
        ffHorizon_ = 0;
    }
}

void
SmCore::pushWriteback(std::size_t src, const Writeback &wb)
{
    std::deque<Writeback> &fifo = wbFifos_[src];
    auto it = fifo.end();
    while (it != fifo.begin() && std::prev(it)->at > wb.at)
        --it;
    fifo.insert(it, wb);
}

Cycle
SmCore::nextWriteback() const
{
    Cycle next = neverCycle;
    for (const std::deque<Writeback> &fifo : wbFifos_) {
        if (!fifo.empty())
            next = std::min(next, fifo.front().at);
    }
    return next;
}

bool
SmCore::anyClassIssuable(std::uint32_t s, const PortsOpen &open,
                         const IssueBudgets &budgets) const
{
    const ClassCounts &c = classCount_[s];
    for (std::uint32_t k = 0; k < numPortClasses; ++k) {
        if (c[2 * k] + c[2 * k + 1] > 0 && open[k] &&
            budgets[budgetSlot[k]] > 0)
            return true;
    }
    return false;
}

SmCore::BubbleKind
SmCore::countedBubble(std::uint32_t s, const PortsOpen &open) const
{
    // An off-chip warp blocked by its port is mem-blocked; one blocked
    // only by a spent budget is not (the walk's rule).
    const ClassCounts &c = classCount_[s];
    bool mem_blocked = false;
    std::uint32_t ready_offchip = 0;
    for (std::uint32_t k = 0; k < numPortClasses; ++k) {
        mem_blocked = mem_blocked || (c[2 * k + 1] > 0 && !open[k]);
        ready_offchip += c[2 * k + 1];
    }
    return bubbleKind(s, mem_blocked, ready_offchip);
}

SmCore::BubbleKind
SmCore::bubbleKind(std::uint32_t s, bool mem_blocked,
                   std::uint32_t ready_offchip) const
{
    if (schedAlive_[s] == 0)
        return BubbleKind::Idle;
    // Off-chip warps missing from the ready list (barrier or hazard
    // blocked) cannot issue, so they are mem-blocked without being
    // visited.
    if (mem_blocked || schedIssuableOffchip_[s] > ready_offchip)
        return BubbleKind::Mem;
    const std::uint32_t issuable_alive = schedAlive_[s] - schedFrozenAlive_[s];
    if (issuable_alive == schedIssuableBarrier_[s] &&
        schedFrozenAlive_[s] == 0) {
        return BubbleKind::Barrier;
    }
    if (schedFrozenAlive_[s] > 0)
        return BubbleKind::Swap;
    return BubbleKind::Short;
}

void
SmCore::chargeBubble(BubbleKind kind, std::uint64_t n)
{
    switch (kind) {
      case BubbleKind::Idle: stalls_.idle += n; break;
      case BubbleKind::Mem: stalls_.memStall += n; break;
      case BubbleKind::Barrier: stalls_.barrierStall += n; break;
      case BubbleKind::Swap: stalls_.swapStall += n; break;
      case BubbleKind::Short: stalls_.shortStall += n; break;
    }
}

Cycle
SmCore::nextEventCycle(Cycle now)
{
    // A valid cached horizon IS the answer — and with skipped ticks
    // deferred, recomputing from unsettled state would be wrong.
    if (now < ffHorizon_)
        return ffHorizon_;
    settleWindow();
    return computeNextEvent(now);
}

Cycle
SmCore::nextEventCycleFresh(Cycle now)
{
    // The oracle's reference answer: settle the books, then recompute
    // from scratch — the cached lazy-window horizon must never be
    // consulted here, since it is exactly what is being checked.
    settleWindow();
    return computeNextEvent(now);
}

Cycle
SmCore::computeNextEvent(Cycle now)
{
    Cycle next =
        std::min(ldst_.nextEventCycle(now), std::max(now, nextWriteback()));
    if (shmem_.portReadyAt() > now)
        next = std::min(next, shmem_.portReadyAt());
    if (throttler_)
        next = std::min(next, throttler_->epochBoundaryCycle(now));
    next = std::min(next, vt_.nextEventCycle(now));
    if (replayMode_ && replayCursor_ < replay_->size()) {
        next = std::min(next,
                        std::max(now, replayBase_ +
                                          (*replay_)[replayCursor_].cycle));
    }

    // Warps of issuable CTAs: a short dependence maturing is an event;
    // a warp that could issue right now means no skipping at all. Warps
    // blocked on hazards, barriers, or off-chip memory unblock only via
    // writeback/NoC events already accounted above or globally — so the
    // ready lists alone carry the warp term. (A hazard-blocked warp's
    // readyAt is no event either: when the release event lands and
    // publishes it, a still-future readyAt re-enters the horizon here.)
    for (std::uint32_t s = 0; s < config_.numSchedulers; ++s) {
        for (const std::uint64_t key : ready_[s]) {
            const VirtualCta &cta = ctas_[readySlot(key)];
            const WarpContext &warp = cta.warps[readyWarp(key)];
            if (warp.readyAt() > now) {
                next = std::min(next, warp.readyAt());
                continue;
            }
            const Instruction &inst = kernelOf(cta)->at(warp.stack().pc());
            if ((!inst.isGlobalMem() || ldst_.canAccept()) &&
                (!inst.isSharedMem() || shmem_.canAccept(now))) {
                return now;
            }
        }
    }
    return next;
}

void
SmCore::settleTo(Cycle cycle)
{
    settleWindow();
    // now_ is the last accounted cycle; bring the books to cycle - 1
    // (the horizon cycle itself is the next real tick's).
    if (cycle > now_ + 1) {
        accountIdleCycles(now_ + 1, cycle - now_ - 1);
        now_ = cycle - 1;
    }
}

void
SmCore::flushFastForward()
{
    settleWindow();
    vt_.settleSamples();
}

void
SmCore::settleWindow()
{
    if (ffPending_ == 0)
        return;
    const std::uint64_t n = ffPending_;
    ffPending_ = 0;
    accountIdleCycles(ffWindowStart_, n);
    // The lazily counted ticks are now fully accounted: advance the
    // local clock over them so settleTo() can measure further gaps.
    now_ = ffWindowStart_ + n - 1;
}

void
SmCore::onExternalEvent()
{
    settleWindow();
    ffHorizon_ = 0;
}

void
SmCore::accountIdleCycles(Cycle now, std::uint64_t n)
{
    // Mirror tick()'s order over n empty cycles: LDST sampling, the VT
    // machine's sampling and streaks, the per-scheduler bubble
    // classification (constant across the window by construction), and
    // the throttler's epoch observations.
    ldst_.settleTo(now + n);
    vt_.fastForwardIdle(n);
    if (classesStale_)
        rebuildClasses();
    bool any_mem = false;
    for (std::uint32_t s = 0; s < config_.numSchedulers; ++s) {
        const BubbleKind kind = countedBubble(
            s, {true, true, true, ldst_.canAccept(), shmem_.canAccept(now)});
        chargeBubble(kind, n);
        any_mem = any_mem || kind == BubbleKind::Mem;
    }
    if (throttler_) {
        throttler_->sampleIdleN(n, any_mem);
        vt_.setActiveCap(throttler_->cap());
    }
}

void
SmCore::issueWarp(VirtualCta &cta, VirtualCtaId slot, WarpContext &warp,
                  const Instruction &inst, Cycle now)
{
    const Pc pc = warp.stack().pc();
    const ActiveMask mask = warp.stack().activeMask();
    const std::uint32_t w = warp.warpInCta();

    VTSIM_TRACE(TraceFlag::Issue, now, stats_.name(), "cta ", slot, " w",
                w, " pc ", pc, " [", mask.count(), " lanes] ",
                disassemble(inst));
    // Functional execution through the kernel's pre-decoded micro-ops.
    ExecResult &res = execScratch_;
    executeMicroInto(kernelOf(cta)->micro(), pc, w, mask, cta.func, *gmem_,
                     *launchOf(cta), res);
    warp.countIssue();
    lastBusy_ = now;
    ++instructionsIssued_;
    threadInstructions_ += mask.count();
    ++gridInstructions_[cta.grid];
    gridThreadInstructions_[cta.grid] += mask.count();
    warp.setReadyAt(now + 1);

    switch (inst.funcUnit()) {
      case FuncUnit::Control:
        if (inst.isBranch()) {
            warp.stack().branch(inst, pc, res.branchTaken);
            maxSimtDepth_ = std::max(maxSimtDepth_,
                                     warp.stack().maxDepth());
        } else if (inst.isBarrier()) {
            if (mtrace_)
                mtrace_->barrier(now, id_);
            warp.stack().advance();
            warp.setAtBarrier(true);
            ++cta.barrierBySched[warp.schedId()];
            ++schedIssuableBarrier_[warp.schedId()];
            barriers_.arrive(slot, w);
            maybeReleaseBarrier(slot, now);
        } else { // EXIT
            warp.stack().exitActiveLanes();
            if (warp.done()) {
                const std::uint32_t key = stallKey(cta);
                retireWarpCounters(cta, warp);
                refreshWarp(slot, w); // Retract before warps can clear.
                noteStallKey(slot, key);
                if (cta.warpsAlive == 0) {
                    finishCta(slot, now);
                    return;
                }
                maybeReleaseBarrier(slot, now);
            }
        }
        break;

      case FuncUnit::Alu:
      case FuncUnit::Sfu: {
        const std::uint32_t latency = inst.funcUnit() == FuncUnit::Sfu
                                          ? config_.sfuLatency
                                          : config_.aluLatency;
        if (inst.hasDst()) {
            warp.scoreboard().reserve(inst.dst, false);
            pushWriteback(inst.funcUnit() == FuncUnit::Sfu,
                          {now + latency, slot, w, inst.dst});
        }
        warp.stack().advance();
        break;
      }

      case FuncUnit::Mem:
        if (inst.isSharedMem()) {
            std::uint32_t passes =
                sharedMemPasses(res.sharedAccesses,
                                config_.sharedMemBanks);
            if (passes == 0)
                passes = 1;
            const Cycle done = shmem_.access(passes, now);
            if (inst.hasDst()) {
                warp.scoreboard().reserve(inst.dst, false);
                pushWriteback(2, {done, slot, w, inst.dst});
            }
        } else if (!res.globalAccesses.empty()) {
            if (inst.hasDst())
                warp.scoreboard().reserve(inst.dst, true);
            if (epochLogging_) {
                epochMemLog_.push_back({now, slot, w, inst.op,
                                        inst.hasDst() ? inst.dst : noReg,
                                        res.globalAccesses});
            }
            ldst_.issueGlobal(slot, w, inst, res.globalAccesses,
                              cta.grid);
        }
        warp.stack().advance();
        break;
    }
    // The issued warp's PC, scoreboard, or barrier flag changed:
    // re-derive its ready-set membership.
    refreshWarp(slot, w);
}

void
SmCore::retireWarpCounters(VirtualCta &cta, const WarpContext &warp)
{
    // Only an issuing warp can retire, so its CTA is Active: its alive
    // count moves out of the plain aggregate, never the frozen one.
    VTSIM_ASSERT(cta.warpsAlive > 0, "alive underflow");
    --cta.warpsAlive;
    const std::uint32_t sched = warp.schedId();
    VTSIM_ASSERT(cta.aliveBySched[sched] > 0,
                 "per-scheduler alive underflow");
    --cta.aliveBySched[sched];
    VTSIM_ASSERT(schedAlive_[sched] > 0, "aggregate alive underflow");
    --schedAlive_[sched];
    if (warp.pendingOffChip() > 0) {
        --cta.offchipBySched[sched];
        --cta.offchipWarps;
        --schedIssuableOffchip_[sched];
    }
}

void
SmCore::maybeReleaseBarrier(VirtualCtaId slot, Cycle now)
{
    VirtualCta &cta = ctas_[slot];
    if (!barriers_.shouldRelease(slot, cta.warpsAlive))
        return;
    VTSIM_TRACE(TraceFlag::Barrier, now, stats_.name(), "cta ", slot,
                " barrier released (", cta.warpsAlive, " warps)");
    if (traceJson_)
        traceJson_->instant(id_, slot, now, "barrier-release", "barrier");
    const bool issuable = vt_.isIssuable(slot);
    lateReady_ = true;
    barriers_.releaseInto(slot, barrierScratch_);
    for (std::uint32_t w : barrierScratch_) {
        cta.warps[w].setAtBarrier(false);
        --cta.barrierBySched[cta.warps[w].schedId()];
        if (issuable)
            --schedIssuableBarrier_[cta.warps[w].schedId()];
        cta.warps[w].setReadyAt(now + 1);
        refreshWarp(slot, w);
    }
}

void
SmCore::finishCta(VirtualCtaId slot, Cycle now)
{
    VirtualCta &cta = ctas_[slot];
    for (const WarpContext &warp : cta.warps) {
        VTSIM_ASSERT(warp.pendingOffChip() == 0,
                     "CTA retired with off-chip transactions in flight");
        maxSimtDepth_ = std::max(maxSimtDepth_, warp.stack().maxDepth());
    }
    // All warps retired, so every counter and ready-list contribution of
    // this CTA is already zero; no retraction needed here.
    vt_.onCtaFinished(slot, now);
    barriers_.ctaFinished(slot);
    cta.valid = false;
    cta.warps.clear();
    cta.listed.clear();
    cta.schedWarps.clear();
    cta.aliveBySched.clear();
    cta.barrierBySched.clear();
    cta.offchipBySched.clear();
    freeSlots_.push_back(slot);
    VTSIM_ASSERT(residentCount_ > 0, "resident underflow");
    --residentCount_;
    ++ctasCompleted_;
    ++gridCtasCompleted_[cta.grid];
}

bool
SmCore::idle() const
{
    return residentCount_ == 0 && ldst_.idle() &&
           nextWriteback() == neverCycle &&
           (!replayMode_ || replayCursor_ == replay_->size());
}

void
SmCore::loadComplete(VirtualCtaId vcta, std::uint32_t warp_in_cta,
                     RegIndex dst)
{
    if (replayMode_) {
        // Replay pendings carry a sentinel CTA and no destination:
        // there is no warp to release, only the horizon to drop.
        onExternalEvent();
        return;
    }
    VTSIM_ASSERT(vcta < ctas_.size() && ctas_[vcta].valid,
                 "load completion for retired CTA");
    onExternalEvent();
    if (dst != noReg) {
        ctas_[vcta].warps[warp_in_cta].scoreboard().release(dst);
        refreshWarp(vcta, warp_in_cta);
    }
}

void
SmCore::offChipIssued(VirtualCtaId vcta, std::uint32_t warp_in_cta)
{
    onExternalEvent();
    if (replayMode_)
        return;
    VirtualCta &cta = ctas_[vcta];
    WarpContext &warp = cta.warps[warp_in_cta];
    const std::uint32_t key = stallKey(cta);
    warp.addOffChip();
    if (warp.pendingOffChip() == 1 && !warp.done()) {
        ++cta.offchipBySched[warp.schedId()];
        ++cta.offchipWarps;
        if (vt_.isIssuable(vcta))
            ++schedIssuableOffchip_[warp.schedId()];
        if (const std::uint8_t l = cta.listed[warp_in_cta]) {
            ++cta.readyOffchip;
            --classCount_[warp.schedId()][2 * (l - 1)];
            ++classCount_[warp.schedId()][2 * (l - 1) + 1];
        }
        noteStallKey(vcta, key);
    }
    if (++cta.pendingOffChipTotal == 1)
        vt_.onCtaReadinessChanged(vcta, false);
}

void
SmCore::responseArriving(Cycle)
{
    onExternalEvent();
}

void
SmCore::offChipReturned(VirtualCtaId vcta, std::uint32_t warp_in_cta)
{
    onExternalEvent();
    if (replayMode_)
        return;
    VirtualCta &cta = ctas_[vcta];
    WarpContext &warp = cta.warps[warp_in_cta];
    const std::uint32_t key = stallKey(cta);
    warp.removeOffChip();
    VTSIM_ASSERT(cta.pendingOffChipTotal > 0,
                 "off-chip aggregate underflow");
    if (warp.pendingOffChip() == 0 && !warp.done()) {
        --cta.offchipBySched[warp.schedId()];
        --cta.offchipWarps;
        if (vt_.isIssuable(vcta))
            --schedIssuableOffchip_[warp.schedId()];
        if (const std::uint8_t l = cta.listed[warp_in_cta]) {
            --cta.readyOffchip;
            --classCount_[warp.schedId()][2 * (l - 1) + 1];
            ++classCount_[warp.schedId()][2 * (l - 1)];
        }
        noteStallKey(vcta, key);
    }
    if (--cta.pendingOffChipTotal == 0)
        vt_.onCtaReadinessChanged(vcta, true);
}

bool
SmCore::ctaFullyStalled(VirtualCtaId id) const
{
    const VirtualCta &cta = ctas_[id];
    VTSIM_ASSERT(cta.valid, "query on retired CTA");
    // The VT manager asks only about its active CTAs, which are
    // issuable. "No warp could issue, ports aside" is then "no warp is
    // listed": at the VT tick every listed warp has readyAt <= now,
    // because readyAt is only ever set to cycle + 1, at an issue or
    // barrier release of an earlier cycle.
    VTSIM_ASSERT(vt_.isIssuable(id), "stall query on frozen CTA ", id);
    return cta.readyMembers == 0;
}

bool
SmCore::ctaAnyWarpLongStalled(VirtualCtaId id) const
{
    const VirtualCta &cta = ctas_[id];
    VTSIM_ASSERT(cta.valid, "query on retired CTA");
    // Same identity as ctaFullyStalled(): an off-chip warp is long-stalled
    // unless it is listed, so comparing the CTA's off-chip warps with its
    // listed off-chip warps answers the existence query.
    VTSIM_ASSERT(vt_.isIssuable(id), "stall query on frozen CTA ", id);
    return cta.offchipWarps > cta.readyOffchip;
}

std::uint32_t
SmCore::ctaPendingOffChip(VirtualCtaId id) const
{
    const VirtualCta &cta = ctas_[id];
    VTSIM_ASSERT(cta.valid, "query on retired CTA");
    return cta.pendingOffChipTotal;
}

void
SmCore::refreshWarp(VirtualCtaId slot, std::uint32_t w)
{
    VirtualCta &cta = ctas_[slot];
    if (!cta.valid)
        return;
    const WarpContext &warp = cta.warps[w];
    // Listed warps cache their next instruction's port class, which
    // moves with the PC on every issue, not only on membership flips.
    const std::uint8_t want =
        vt_.isIssuable(slot) && warpReadyMember(cta, warp)
            ? 1 + portClass(kernelOf(cta)->at(warp.stack().pc()))
            : 0;
    const std::uint8_t had = cta.listed[w];
    if (want == had)
        return;
    const std::uint32_t offchip = warp.pendingOffChip() > 0 ? 1 : 0;
    ClassCounts &count = classCount_[warp.schedId()];
    if (had)
        --count[2 * (had - 1) + offchip];
    if (want)
        ++count[2 * (want - 1) + offchip];
    cta.listed[w] = want;
    if ((had != 0) == (want != 0))
        return;
    std::vector<std::uint64_t> &list = ready_[warp.schedId()];
    const std::uint64_t key = readyKey(cta, slot, w);
    const auto it = std::lower_bound(list.begin(), list.end(), key);
    const std::uint32_t stall_key = stallKey(cta);
    if (want) {
        list.insert(it, key);
        ++cta.readyMembers;
        cta.readyOffchip += offchip;
    } else {
        list.erase(it);
        --cta.readyMembers;
        cta.readyOffchip -= offchip;
    }
    noteStallKey(slot, stall_key);
}

void
SmCore::rebuildReadyCounters()
{
    for (VirtualCta &cta : ctas_) {
        cta.listed.assign(cta.warps.size(), 0);
        cta.readyMembers = 0;
        cta.readyOffchip = 0;
        cta.offchipWarps = 0;
        for (const std::uint32_t n : cta.offchipBySched)
            cta.offchipWarps += n;
    }
    for (const auto &list : ready_) {
        for (const std::uint64_t key : list) {
            VirtualCta &cta = ctas_[readySlot(key)];
            cta.listed[readyWarp(key)] = 1; // Class set by rebuildClasses.
            ++cta.readyMembers;
            if (cta.warps[readyWarp(key)].pendingOffChip() > 0)
                ++cta.readyOffchip;
        }
    }
    // The kernels may be rebound only after restore(): classes wait for
    // the next tick.
    classesStale_ = true;
}

void
SmCore::rebuildClasses()
{
    classCount_.assign(config_.numSchedulers, {});
    for (VirtualCta &cta : ctas_) {
        for (std::uint32_t w = 0; w < cta.listed.size(); ++w) {
            if (!cta.listed[w])
                continue;
            const WarpContext &warp = cta.warps[w];
            const std::uint8_t cls =
                portClass(kernelOf(cta)->at(warp.stack().pc()));
            cta.listed[w] = 1 + cls;
            ++classCount_[warp.schedId()]
                         [2 * cls + (warp.pendingOffChip() > 0)];
        }
    }
    classesStale_ = false;
}

void
SmCore::onCtaIssuableChanged(VirtualCtaId id, bool issuable)
{
    VirtualCta &cta = ctas_[id];
    VTSIM_ASSERT(cta.valid, "issuability flip of retired CTA ", id);
    for (std::uint32_t s = 0; s < config_.numSchedulers; ++s) {
        if (issuable) {
            VTSIM_ASSERT(schedFrozenAlive_[s] >= cta.aliveBySched[s],
                         "frozen aggregate underflow");
            schedFrozenAlive_[s] -= cta.aliveBySched[s];
            schedIssuableBarrier_[s] += cta.barrierBySched[s];
            schedIssuableOffchip_[s] += cta.offchipBySched[s];
        } else {
            schedFrozenAlive_[s] += cta.aliveBySched[s];
            VTSIM_ASSERT(schedIssuableBarrier_[s] >= cta.barrierBySched[s]
                         && schedIssuableOffchip_[s] >=
                                cta.offchipBySched[s],
                         "issuable aggregate underflow");
            schedIssuableBarrier_[s] -= cta.barrierBySched[s];
            schedIssuableOffchip_[s] -= cta.offchipBySched[s];
        }
    }
    if (issuable) {
        for (std::uint32_t w = 0; w < cta.warps.size(); ++w)
            refreshWarp(id, w);
    } else {
        // The CTA's keys form one contiguous range in every list.
        const std::uint64_t lo = readyKey(cta, 0, 0);
        const std::uint64_t hi = readyKey(cta, 0, 256);
        for (std::vector<std::uint64_t> &list : ready_) {
            const auto first =
                std::lower_bound(list.begin(), list.end(), lo);
            const auto last = std::lower_bound(first, list.end(), hi);
            list.erase(first, last);
        }
        for (std::uint32_t w = 0; w < cta.warps.size(); ++w) {
            if (const std::uint8_t l = cta.listed[w]) {
                --classCount_[cta.warps[w].schedId()]
                             [2 * (l - 1) +
                              (cta.warps[w].pendingOffChip() > 0)];
                cta.listed[w] = 0;
            }
        }
        cta.readyMembers = 0;
        cta.readyOffchip = 0;
    }
}

void
SmCore::rebindGrid(GridId grid, const Kernel &kernel,
                   const LaunchParams &launch, GlobalMemory &gmem)
{
    if (grid >= grids_.size())
        grids_.resize(grid + 1);
    grids_[grid].kernel = &kernel;
    grids_[grid].launch = &launch;
    gmem_ = &gmem;
    for (auto &list : ready_)
        list.reserve(config_.effMaxWarpsPerSm());
}

void
SmCore::reset()
{
    grids_.clear();
    gmem_ = nullptr;
    ldst_.reset();
    shmem_.reset();
    barriers_.reset();
    vt_.reset();
    if (throttler_)
        throttler_->reset();
    for (auto &sched : schedulers_)
        sched.reset();
    ctas_.clear();
    freeSlots_.clear();
    residentCount_ = 0;
    nextCtaAge_ = 0;
    barrierScratch_.clear();
    for (auto &list : ready_)
        list.clear();
    classCount_.assign(config_.numSchedulers, {});
    classesStale_ = false;
    schedAlive_.assign(config_.numSchedulers, 0);
    schedFrozenAlive_.assign(config_.numSchedulers, 0);
    schedIssuableBarrier_.assign(config_.numSchedulers, 0);
    schedIssuableOffchip_.assign(config_.numSchedulers, 0);
    for (std::deque<Writeback> &fifo : wbFifos_)
        fifo.clear();
    now_ = 0;
    lastBusy_ = neverCycle;
    maxSimtDepth_ = 0;
    ffHorizon_ = 0;
    ffWindowStart_ = 0;
    ffPending_ = 0;
    epochLogging_ = false;
    epochMemLog_.clear();
    epochOwner_ = {};
    replayMode_ = false;
    replay_ = nullptr;
    replayCursor_ = 0;
    replayBase_ = 0;
    instructionsIssued_.reset();
    threadInstructions_.reset();
    ctasCompleted_.reset();
    for (GridId g = 0; g < maxGrids; ++g) {
        gridInstructions_[g].reset();
        gridThreadInstructions_[g].reset();
        gridCtasCompleted_[g].reset();
    }
    stalls_ = {};
}

void
SmCore::save(Serializer &ser) const
{
    VTSIM_ASSERT(ffPending_ == 0,
                 "checkpoint with unsettled lazy-tick window");
    const std::size_t sec = ser.beginSection("smcr");
    ser.put<std::uint64_t>(ctas_.size());
    for (const VirtualCta &cta : ctas_) {
        ser.put(cta.valid);
        ser.put(cta.grid);
        ser.put(cta.age);
        cta.func.save(ser);
        ser.put<std::uint64_t>(cta.warps.size());
        for (const WarpContext &warp : cta.warps)
            warp.save(ser);
        ser.put<std::uint64_t>(cta.schedWarps.size());
        for (const auto &sw : cta.schedWarps)
            ser.putVec(sw);
        ser.putVec(cta.aliveBySched);
        ser.putVec(cta.barrierBySched);
        ser.putVec(cta.offchipBySched);
        ser.put(cta.warpsAlive);
        ser.put(cta.pendingOffChipTotal);
    }
    ser.putVec(freeSlots_);
    ser.put(residentCount_);
    ser.put(nextCtaAge_);
    // Images carry each ready list as sorted (slot << 8) | w keys, the
    // form that predates rank-ordered lists; restore() converts back.
    ser.put<std::uint64_t>(ready_.size());
    std::vector<std::uint64_t> image;
    for (const auto &list : ready_) {
        image.clear();
        for (const std::uint64_t key : list)
            image.push_back(std::uint64_t(readySlot(key)) << 8 |
                            readyWarp(key));
        std::sort(image.begin(), image.end());
        ser.putVec(image);
    }
    ser.putVec(schedAlive_);
    ser.putVec(schedFrozenAlive_);
    ser.putVec(schedIssuableBarrier_);
    ser.putVec(schedIssuableOffchip_);
    std::vector<Writeback> wbs;
    for (const std::deque<Writeback> &fifo : wbFifos_)
        wbs.insert(wbs.end(), fifo.begin(), fifo.end());
    std::sort(wbs.begin(), wbs.end());
    ser.put<std::uint64_t>(wbs.size());
    for (const Writeback &wb : wbs) {
        ser.put(wb.at);
        ser.put(wb.vcta);
        ser.put(wb.warpInCta);
        ser.put(wb.reg);
    }
    ser.put(now_);
    ser.put(maxSimtDepth_);
    // ffHorizon_ is deliberately not checkpointed (see the interconnect
    // and partition save() notes): it caches tick-cadence history, which
    // differs between sequential and sharded runs of the same state.
    saveStat(ser, instructionsIssued_);
    saveStat(ser, threadInstructions_);
    saveStat(ser, ctasCompleted_);
    for (GridId g = 0; g < maxGrids; ++g) {
        saveStat(ser, gridInstructions_[g]);
        saveStat(ser, gridThreadInstructions_[g]);
        saveStat(ser, gridCtasCompleted_[g]);
    }
    static_assert(std::is_trivially_copyable_v<StallBreakdown>);
    ser.put(stalls_);
    // The replay slice itself is not machine state (it is reloaded from
    // the trace file on restore); the mode, cursor and base are.
    ser.put<std::uint8_t>(replayMode_);
    ser.put(replayCursor_);
    ser.put(replayBase_);
    for (const auto &sched : schedulers_)
        sched.save(ser);
    ser.endSection(sec);
    ldst_.save(ser);
    shmem_.save(ser);
    barriers_.save(ser);
    vt_.save(ser);
    if (throttler_)
        throttler_->save(ser);
}

void
SmCore::restore(Deserializer &des)
{
    des.beginSection("smcr");
    const auto cta_count = des.get<std::uint64_t>();
    ctas_.assign(cta_count, VirtualCta());
    for (VirtualCtaId slot = 0; slot < cta_count; ++slot) {
        VirtualCta &cta = ctas_[slot];
        des.get(cta.valid);
        des.get(cta.grid);
        des.get(cta.age);
        cta.func.restore(des);
        const auto warp_count = des.get<std::uint64_t>();
        cta.warps.assign(warp_count, WarpContext());
        for (WarpContext &warp : cta.warps)
            warp.restore(des);
        const auto sched_count = des.get<std::uint64_t>();
        cta.schedWarps.assign(sched_count, {});
        for (auto &sw : cta.schedWarps)
            des.getVec(sw);
        des.getVec(cta.aliveBySched);
        des.getVec(cta.barrierBySched);
        des.getVec(cta.offchipBySched);
        des.get(cta.warpsAlive);
        des.get(cta.pendingOffChipTotal);
        VTSIM_ASSERT(!cta.valid || readyKeyFits(cta, slot), "checkpoint CTA ",
                     slot, " overflows the ready-list key fields");
    }
    des.getVec(freeSlots_);
    des.get(residentCount_);
    des.get(nextCtaAge_);
    const auto ready_count = des.get<std::uint64_t>();
    VTSIM_ASSERT(ready_count == ready_.size(),
                 "checkpoint scheduler count mismatch");
    for (auto &list : ready_) {
        des.getVec(list);
        for (std::uint64_t &key : list) {
            const VirtualCtaId slot = key >> 8;
            const std::uint32_t w = key & 0xff;
            VTSIM_ASSERT(slot < ctas_.size() && ctas_[slot].valid &&
                             w < ctas_[slot].warps.size(),
                         "checkpoint ready list names a missing warp");
            key = readyKey(ctas_[slot], slot, w);
        }
        std::sort(list.begin(), list.end());
    }
    rebuildReadyCounters();
    des.getVec(schedAlive_);
    des.getVec(schedFrozenAlive_);
    des.getVec(schedIssuableBarrier_);
    des.getVec(schedIssuableOffchip_);
    // The image does not say which source an entry came from: all go to
    // the first FIFO, and pushWriteback() keeps it sorted from then on.
    for (std::deque<Writeback> &fifo : wbFifos_)
        fifo.clear();
    const auto wb_count = des.get<std::uint64_t>();
    for (std::uint64_t i = 0; i < wb_count; ++i) {
        Writeback wb;
        des.get(wb.at);
        des.get(wb.vcta);
        des.get(wb.warpInCta);
        des.get(wb.reg);
        pushWriteback(0, wb);
    }
    des.get(now_);
    des.get(maxSimtDepth_);
    ffHorizon_ = 0;
    ffWindowStart_ = 0;
    ffPending_ = 0;
    restoreStat(des, instructionsIssued_);
    restoreStat(des, threadInstructions_);
    restoreStat(des, ctasCompleted_);
    for (GridId g = 0; g < maxGrids; ++g) {
        restoreStat(des, gridInstructions_[g]);
        restoreStat(des, gridThreadInstructions_[g]);
        restoreStat(des, gridCtasCompleted_[g]);
    }
    des.get(stalls_);
    replayMode_ = des.get<std::uint8_t>() != 0;
    des.get(replayCursor_);
    des.get(replayBase_);
    // replay_ is deliberately left as-is: an in-place restore (the
    // shard oracle's epoch re-run) keeps the already-bound slice, while
    // a cross-process restore starts null and Gpu::replayTrace rebinds
    // it via resumeReplay().
    for (auto &sched : schedulers_)
        sched.restore(des);
    des.endSection();
    ldst_.restore(des);
    shmem_.restore(des);
    barriers_.restore(des);
    vt_.restore(des);
    if (throttler_)
        throttler_->restore(des);
}

void
SmCore::verifyReadySets() const
{
    std::vector<std::uint32_t> members(ctas_.size(), 0);
    std::vector<std::uint32_t> members_offchip(ctas_.size(), 0);
    for (std::uint32_t s = 0; s < config_.numSchedulers; ++s) {
        std::vector<std::uint64_t> expected;
        ClassCounts classes{};
        std::uint32_t alive = 0;
        std::uint32_t frozen_alive = 0;
        std::uint32_t issuable_barrier = 0;
        std::uint32_t issuable_offchip = 0;
        for (VirtualCtaId slot = 0; slot < ctas_.size(); ++slot) {
            const VirtualCta &cta = ctas_[slot];
            if (!cta.valid)
                continue;
            alive += cta.aliveBySched[s];
            const bool issuable = vt_.isIssuable(slot);
            if (!issuable) {
                frozen_alive += cta.aliveBySched[s];
                continue;
            }
            std::uint32_t barrier = 0;
            std::uint32_t offchip = 0;
            for (std::uint32_t w : cta.schedWarps[s]) {
                const WarpContext &warp = cta.warps[w];
                if (warp.done())
                    continue;
                barrier += warp.atBarrier() ? 1 : 0;
                offchip += warp.pendingOffChip() > 0 ? 1 : 0;
                const bool member = warpReadyMember(cta, warp);
                const std::uint8_t cls =
                    portClass(kernelOf(cta)->at(warp.stack().pc()));
                VTSIM_ASSERT(cta.listed[w] == (member ? 1 + cls : 0),
                             "listed flag or port class diverged for warp ",
                             w, " of cta ", slot);
                if (member) {
                    ++classes[2 * cls + (warp.pendingOffChip() > 0)];
                    expected.push_back(readyKey(cta, slot, w));
                    ++members[slot];
                    members_offchip[slot] += warp.pendingOffChip() > 0;
                    VTSIM_ASSERT(warp.readyAt() <= now_, "ready warp ", w,
                                 " of cta ", slot, " has readyAt ",
                                 warp.readyAt(), " > now ", now_,
                                 " at the VT tick");
                }
            }
            VTSIM_ASSERT(barrier == cta.barrierBySched[s] &&
                         offchip == cta.offchipBySched[s],
                         "per-CTA ready counters diverged for cta ", slot,
                         " sched ", s);
            issuable_barrier += barrier;
            issuable_offchip += offchip;
        }
        std::sort(expected.begin(), expected.end());
        VTSIM_ASSERT(expected == ready_[s],
                     "ready list diverged from full scan on sched ", s,
                     " (", ready_[s].size(), " vs ", expected.size(),
                     " entries)");
        VTSIM_ASSERT(classes == classCount_[s],
                     "port-class counts diverged on sched ", s);
        VTSIM_ASSERT(alive == schedAlive_[s] &&
                     frozen_alive == schedFrozenAlive_[s] &&
                     issuable_barrier == schedIssuableBarrier_[s] &&
                     issuable_offchip == schedIssuableOffchip_[s],
                     "ready aggregates diverged on sched ", s);
    }
    for (VirtualCtaId slot = 0; slot < ctas_.size(); ++slot) {
        const VirtualCta &cta = ctas_[slot];
        if (!cta.valid)
            continue;
        std::uint32_t listed = 0;
        for (const std::uint8_t flag : cta.listed)
            listed += flag != 0;
        std::uint32_t offchip = 0;
        for (const std::uint32_t n : cta.offchipBySched)
            offchip += n;
        VTSIM_ASSERT(cta.offchipWarps == offchip &&
                         cta.readyMembers == members[slot] &&
                         listed == members[slot] &&
                         cta.readyOffchip == members_offchip[slot],
                     "per-CTA ready counters diverged for cta ", slot);
    }
    vt_.verifyDerivedState();
}

} // namespace vtsim
