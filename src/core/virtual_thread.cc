#include "core/virtual_thread.hh"

#include <algorithm>
#include <limits>

#include "common/log.hh"
#include "common/trace.hh"
#include "sim/serialize_util.hh"
#include "telemetry/trace_json.hh"

namespace vtsim {

std::string
toString(CtaState state)
{
    switch (state) {
      case CtaState::Active: return "active";
      case CtaState::SwappingOut: return "swapping-out";
      case CtaState::Inactive: return "inactive";
      case CtaState::SwappingIn: return "swapping-in";
    }
    return "?";
}

VirtualThreadManager::VirtualThreadManager(const GpuConfig &config,
                                           VtCtaQuery &query, SmId sm_id)
    : config_(config), query_(query), smId_(sm_id),
      stats_("sm" + std::to_string(sm_id) + ".vt")
{
    stats_.addCounter("swap_outs", &swapOuts_, "CTA swap-outs");
    stats_.addCounter("swap_ins", &swapIns_, "CTA swap-ins");
    for (GridId g = 0; g < maxGrids; ++g) {
        const std::string p = "grid" + std::to_string(g);
        stats_.addCounter(p + ".swap_outs", &gridSwapOuts_[g],
                          "CTA swap-outs of grid " + std::to_string(g));
        stats_.addCounter(p + ".swap_ins", &gridSwapIns_[g],
                          "CTA swap-ins of grid " + std::to_string(g));
    }
    stats_.addCounter("fresh_activations", &freshActivations_,
                      "CTAs activated straight from launch");
    stats_.addCounter("swap_in_not_ready", &swapInNotReady_,
                      "swap-ins of CTAs with data still outstanding");
    stats_.addScalar("resident_ctas", &residentSamples_,
                     "resident CTAs sampled per cycle");
    stats_.addScalar("active_ctas", &activeSamples_,
                     "active CTAs sampled per cycle");
    stats_.addHistogram("swap_stall_streak", &swapStallStreak_,
                        "victim stall streak at swap-out (cycles)");
}

void
VirtualThreadManager::traceStateChange(VirtualCtaId id, CtaState state,
                                       Cycle now)
{
    if (!traceJson_)
        return;
    traceJson_->end(smId_, id, now);
    traceJson_->begin(smId_, id, now, toString(state), "vt");
}

void
VirtualThreadManager::configureGrid(GridId grid,
                                    const CtaFootprint &footprint)
{
    VTSIM_ASSERT(grid < maxGrids, "grid id ", grid, " out of range");
    VTSIM_ASSERT(residentCount_ == 0,
                 "kernel reconfigured with CTAs resident");
    VTSIM_ASSERT(footprint.warpsPerCta > 0 && footprint.threadsPerCta > 0,
                 "degenerate CTA footprint");
    fps_[grid] = footprint;
    slotFits_ = anyGridFits();
}

bool
VirtualThreadManager::anyGridFits() const
{
    for (const CtaFootprint &fp : fps_) {
        if (fp.warpsPerCta > 0 && activeSlotFreeFor(fp))
            return true;
    }
    return false;
}

void
VirtualThreadManager::enterActive(VirtualCtaId id)
{
    ctas_[id].tracked = false;
    onCtaStallChanged(id);
}

void
VirtualThreadManager::leaveActive(VirtualCtaId id)
{
    CtaRec &rec = ctas_[id];
    if (!rec.tracked)
        return;
    rec.stalledFor = static_cast<std::uint32_t>(streak(rec));
    rec.triggeredNow =
        rec.stalledFor >= config_.vtStallThreshold && triggerable(rec);
    rec.tracked = false;
    const auto it = std::find(stalled_.begin(), stalled_.end(), id);
    if (it != stalled_.end()) {
        stalled_.erase(it);
        pickVictim();
    }
}

void
VirtualThreadManager::settleSamples()
{
    residentSamples_.sampleN(residentCount_, unsampled_);
    activeSamples_.sampleN(activeCtas_, unsampled_);
    unsampled_ = 0;
}

void
VirtualThreadManager::listInactive(VirtualCtaId id)
{
    const CtaRec &rec = ctas_[id];
    AgeList &list =
        rec.ready ? readyInactive_[rec.grid] : waitingInactive_[rec.grid];
    const std::pair<std::uint64_t, VirtualCtaId> entry{rec.age, id};
    list.insert(std::lower_bound(list.begin(), list.end(), entry), entry);
}

void
VirtualThreadManager::unlistInactive(VirtualCtaId id)
{
    const CtaRec &rec = ctas_[id];
    AgeList &list =
        rec.ready ? readyInactive_[rec.grid] : waitingInactive_[rec.grid];
    const std::pair<std::uint64_t, VirtualCtaId> entry{rec.age, id};
    const auto it = std::lower_bound(list.begin(), list.end(), entry);
    VTSIM_ASSERT(it != list.end() && *it == entry, "CTA ", id,
                 " missing from the inactive lists");
    list.erase(it);
}

bool
VirtualThreadManager::activeSlotFreeFor(const CtaFootprint &fp) const
{
    return activeCtas_ < std::min(config_.effMaxCtasPerSm(),
                                  dynamicCap_) &&
           warpsActive_ + fp.warpsPerCta <= config_.effMaxWarpsPerSm() &&
           threadsActive_ + fp.threadsPerCta <=
               config_.effMaxThreadsPerSm();
}

bool
VirtualThreadManager::canAdmit(GridId grid) const
{
    const CtaFootprint &fp = fps_[grid];
    VTSIM_ASSERT(fp.warpsPerCta > 0, "canAdmit before configureGrid");
    // Capacity limit binds in both machines: registers and shared memory
    // are physically allocated per resident CTA.
    if (regsInUse_ + fp.regsPerCta > config_.registersPerSm)
        return false;
    if (sharedInUse_ + fp.sharedPerCta > config_.sharedMemPerSm)
        return false;

    if (!config_.vtEnabled) {
        // Baseline: the scheduling limit also gates admission.
        return activeSlotFreeFor(fp);
    }
    // VT: admit past the scheduling limit, up to the virtual-CTA budget.
    const std::uint32_t limit =
        config_.vtMaxVirtualCtasPerSm
            ? config_.vtMaxVirtualCtasPerSm
            : std::numeric_limits<std::uint32_t>::max();
    return residentCount_ < limit;
}

void
VirtualThreadManager::activate(VirtualCtaId id, Cycle now)
{
    CtaRec &rec = ctas_[id];
    const CtaFootprint &fp = fps_[rec.grid];
    VTSIM_ASSERT(activeSlotFreeFor(fp), "activate without a free slot");
    unlistInactive(id);
    settleSamples();
    ++activeCtas_;
    warpsActive_ += fp.warpsPerCta;
    threadsActive_ += fp.threadsPerCta;
    slotFits_ = anyGridFits();
    rec.stalledFor = 0;
    if (rec.everSwapped) {
        // Restoring saved scheduling state costs the swap-in latency.
        rec.state = CtaState::SwappingIn;
        rec.transitionAt = now + config_.vtSwapInLatency;
        noteTransition(rec.transitionAt);
        ++swapIns_;
        ++gridSwapIns_[rec.grid];
        traceStateChange(id, CtaState::SwappingIn, now);
    } else {
        rec.state = CtaState::Active;
        enterActive(id);
        ++freshActivations_;
        traceStateChange(id, CtaState::Active, now);
        query_.onCtaIssuableChanged(id, true);
    }
}

void
VirtualThreadManager::releaseActiveSlot(const CtaFootprint &fp)
{
    VTSIM_ASSERT(activeCtas_ > 0, "active slot underflow");
    settleSamples();
    --activeCtas_;
    warpsActive_ -= fp.warpsPerCta;
    threadsActive_ -= fp.threadsPerCta;
    slotFits_ = anyGridFits();
}

void
VirtualThreadManager::onAdmit(VirtualCtaId id, Cycle now, GridId grid)
{
    VTSIM_ASSERT(canAdmit(grid), "onAdmit without canAdmit");
    if (id >= ctas_.size())
        ctas_.resize(id + 1);
    VTSIM_ASSERT(!ctas_[id].resident, "CTA ", id, " already resident");

    regsInUse_ += fps_[grid].regsPerCta;
    sharedInUse_ += fps_[grid].sharedPerCta;
    settleSamples();

    CtaRec &rec = ctas_[id];
    rec = CtaRec{};
    rec.resident = true;
    rec.age = nextAge_++;
    rec.state = CtaState::Inactive;
    rec.grid = grid;
    rec.ready = query_.ctaPendingOffChip(id) == 0;
    listInactive(id);
    ++residentCount_;

    VTSIM_TRACE(TraceFlag::Cta, now, stats_.name(), "admit cta ", id,
                " (grid ", grid, ", resident ", residentCount_, ")");
    if (traceJson_) {
        traceJson_->instant(smId_, id, now, "admit", "cta");
        traceJson_->begin(smId_, id, now, toString(rec.state), "vt");
    }
    if (!activationBlocked_[grid] && activeSlotFreeFor(fps_[grid]))
        activate(id, now);
}

void
VirtualThreadManager::onCtaFinished(VirtualCtaId id, Cycle now)
{
    VTSIM_ASSERT(id < ctas_.size() && ctas_[id].resident,
                 "finish of unknown CTA ", id);
    VTSIM_ASSERT(ctas_[id].state == CtaState::Active,
                 "CTA ", id, " finished while ", toString(ctas_[id].state));
    VTSIM_TRACE(TraceFlag::Cta, now, stats_.name(), "finish cta ", id);
    if (traceJson_) {
        traceJson_->end(smId_, id, now);
        traceJson_->instant(smId_, id, now, "finish", "cta");
    }
    const CtaFootprint &fp = fps_[ctas_[id].grid];
    leaveActive(id);
    releaseActiveSlot(fp);
    regsInUse_ -= fp.regsPerCta;
    sharedInUse_ -= fp.sharedPerCta;
    ctas_[id].resident = false;
    --residentCount_;

    // The freed slot goes to the best inactive CTA right away.
    const VirtualCtaId incoming = pickSwapIn(false);
    if (incoming != invalidId &&
        activeSlotFreeFor(fps_[ctas_[incoming].grid]))
        activate(incoming, now);
}

void
VirtualThreadManager::onCtaReadinessChanged(VirtualCtaId id, bool ready)
{
    VTSIM_ASSERT(id < ctas_.size() && ctas_[id].resident,
                 "readiness flip of unknown CTA ", id);
    CtaRec &rec = ctas_[id];
    const bool listed = rec.state == CtaState::Inactive;
    if (listed)
        unlistInactive(id);
    rec.ready = ready;
    if (listed)
        listInactive(id);
}

CtaState
VirtualThreadManager::state(VirtualCtaId id) const
{
    VTSIM_ASSERT(id < ctas_.size() && ctas_[id].resident,
                 "state() of unknown CTA ", id);
    return ctas_[id].state;
}

GridId
VirtualThreadManager::gridOf(VirtualCtaId id) const
{
    VTSIM_ASSERT(id < ctas_.size() && ctas_[id].resident,
                 "gridOf() of unknown CTA ", id);
    return ctas_[id].grid;
}

void
VirtualThreadManager::forceSwapOut(VirtualCtaId id, Cycle now)
{
    VTSIM_ASSERT(config_.vtEnabled, "forceSwapOut without VT machinery");
    VTSIM_ASSERT(id < ctas_.size() && ctas_[id].resident,
                 "forceSwapOut of unknown CTA ", id);
    CtaRec &out = ctas_[id];
    VTSIM_ASSERT(out.state == CtaState::Active, "forceSwapOut of ",
                 toString(out.state), " CTA ", id);
    VTSIM_TRACE(TraceFlag::Swap, now, stats_.name(),
                "preempt swap out cta ", id, " (grid ", out.grid, ")");
    // No swapStallStreak_ sample: this is a preemption, not the stall
    // trigger, and the histogram measures the trigger's patience.
    leaveActive(id);
    out.state = CtaState::SwappingOut;
    out.transitionAt = now + config_.vtSwapOutLatency;
    noteTransition(out.transitionAt);
    out.everSwapped = true;
    out.stalledFor = 0;
    traceStateChange(id, CtaState::SwappingOut, now);
    query_.onCtaIssuableChanged(id, false);
    ++swapOuts_;
    ++gridSwapOuts_[out.grid];
    releaseActiveSlot(fps_[out.grid]);
}

VirtualCtaId
VirtualThreadManager::pickSwapIn(bool require_ready) const
{
    // Ages are unique, so "oldest list front" is a total order. The
    // paper's ReadyFirst policy prefers ready CTAs, oldest first within
    // each class; the OldestFirst ablation takes strict age order.
    const bool ready_first =
        config_.vtSwapInPolicy == VtSwapInPolicy::ReadyFirst;
    VirtualCtaId best = invalidId;
    std::uint64_t best_age = ~0ull;
    const auto consider = [&](const AgeList &list) {
        if (!list.empty() && list.front().first < best_age) {
            best_age = list.front().first;
            best = list.front().second;
        }
    };
    for (GridId g = 0; g < maxGrids; ++g) {
        if (activationBlocked_[g])
            continue; // Preempt policy parks this grid's CTAs.
        consider(readyInactive_[g]);
        if (!ready_first)
            consider(waitingInactive_[g]);
    }
    // Under the paper's policy a swap only pays off when the incoming CTA
    // is ready: never swap in a CTA that would immediately stall. Filling
    // an already-free slot (require_ready == false) takes any CTA.
    if (ready_first && best == invalidId && !require_ready) {
        for (GridId g = 0; g < maxGrids; ++g) {
            if (!activationBlocked_[g])
                consider(waitingInactive_[g]);
        }
    }
    return best;
}

Cycle
VirtualThreadManager::nextEventCycle(Cycle now) const
{
    if (!config_.vtEnabled)
        return neverCycle;

    // A free active slot with an inactive CTA waiting (possible after a
    // throttle-cap raise) activates at the very next tick, and so does
    // the next pair of an already-eligible swap (one pair per cycle).
    if (slotFits_) {
        const VirtualCtaId cand = pickSwapIn(false);
        if (cand != invalidId &&
            activeSlotFreeFor(fps_[ctas_[cand].grid]))
            return now;
    }
    // A CTA awaiting a re-poll may flip its streak at the next tick.
    if (!dirty_.empty())
        return now;
    Cycle next = nextTransition_ == neverCycle
                     ? neverCycle
                     : std::max(now, nextTransition_);
    for (const VirtualCtaId id : stalled_) {
        const std::uint64_t s = streak(ctas_[id]);
        // With the stall condition holding steady, the streak first
        // reaches the swap threshold at this cycle's tick. A streak
        // already at/past the threshold generates no event: whatever
        // blocked its trigger only changes on an external event.
        if (s < config_.vtStallThreshold)
            next = std::min(next, now + (config_.vtStallThreshold - 1 - s));
    }
    // No ready incoming is the same answer for any armed victim.
    if (armed() && pickSwapIn(true) != invalidId)
        return now;
    return next;
}

void
VirtualThreadManager::fastForwardIdle(std::uint64_t n)
{
    unsampled_ += n;
    if (!config_.vtEnabled)
        return;
    // Tracked streaks follow the clock; an untracked CTA's recorded
    // streak grows while its last answer was stalled.
    clock_ += n;
    for (const VirtualCtaId id : dirty_) {
        CtaRec &rec = ctas_[id];
        if (rec.resident && rec.state == CtaState::Active &&
            !rec.tracked && rec.stalledNow)
            rec.stalledFor += n;
    }
}

void
VirtualThreadManager::step(Cycle now)
{
    // 1. Complete in-flight transitions, in slot order, once the earliest
    //    one is due; the scan re-derives the next due cycle.
    if (now >= nextTransition_) {
        nextTransition_ = neverCycle;
        for (VirtualCtaId id = 0; id < ctas_.size(); ++id) {
            CtaRec &rec = ctas_[id];
            if (!rec.resident || (rec.state != CtaState::SwappingOut &&
                                  rec.state != CtaState::SwappingIn))
                continue;
            if (rec.transitionAt > now) {
                noteTransition(rec.transitionAt);
            } else if (rec.state == CtaState::SwappingOut) {
                rec.state = CtaState::Inactive;
                listInactive(id);
                traceStateChange(id, CtaState::Inactive, now);
            } else {
                rec.state = CtaState::Active;
                rec.stalledFor = 0;
                enterActive(id);
                traceStateChange(id, CtaState::Active, now);
                query_.onCtaIssuableChanged(id, true);
            }
        }
    }

    // 2. Fill any free active slots (e.g. freed by admissions racing).
    //    When no configured footprint fits, no candidate's does either.
    while (slotFits_) {
        const VirtualCtaId incoming = pickSwapIn(false);
        if (incoming == invalidId ||
            !activeSlotFreeFor(fps_[ctas_[incoming].grid]))
            break;
        activate(incoming, now);
    }

    // 3. Stall streaks: re-poll only the CTAs whose answer may have
    //    flipped. The streak follows the configured trigger's own
    //    condition so the AnyWarpStalled ablation genuinely fires
    //    earlier than the paper's policy.
    if (!dirty_.empty())
        repoll();

    // 4. At most one swap pair per cycle (one context-switch port): the
    //    longest armed streak, if any CTA is ready to run instead.
    if (!armed())
        return;
    const VirtualCtaId victim = victim_;
    const VirtualCtaId incoming = pickSwapIn(true);
    if (incoming == invalidId)
        return; // Nobody to run instead: swapping out would only hurt.

    // Cross-grid swap pairs must also fit: with mixed footprints the
    // incoming CTA may need more warp/thread slots than the victim
    // frees. Skip the swap this cycle rather than strand the victim.
    // (Same-footprint pairs — every solo launch — always fit, matching
    // the single-grid machine's invariant.)
    const CtaFootprint &fpOut = fps_[ctas_[victim].grid];
    const CtaFootprint &fpIn = fps_[ctas_[incoming].grid];
    const bool fits =
        activeCtas_ - 1 < std::min(config_.effMaxCtasPerSm(),
                                   dynamicCap_) &&
        warpsActive_ - fpOut.warpsPerCta + fpIn.warpsPerCta <=
            config_.effMaxWarpsPerSm() &&
        threadsActive_ - fpOut.threadsPerCta + fpIn.threadsPerCta <=
            config_.effMaxThreadsPerSm();
    if (!fits)
        return;

    CtaRec &out = ctas_[victim];
    leaveActive(victim);
    VTSIM_TRACE(TraceFlag::Swap, now, stats_.name(), "swap out cta ",
                victim, " (stalled ", out.stalledFor,
                " cycles), swap in cta ", incoming);
    swapStallStreak_.sample(out.stalledFor);
    out.state = CtaState::SwappingOut;
    out.transitionAt = now + config_.vtSwapOutLatency;
    noteTransition(out.transitionAt);
    out.everSwapped = true;
    traceStateChange(victim, CtaState::SwappingOut, now);
    query_.onCtaIssuableChanged(victim, false);
    ++swapOuts_;
    ++gridSwapOuts_[out.grid];
    releaseActiveSlot(fpOut);

    CtaRec &in = ctas_[incoming];
    if (!in.ready)
        ++swapInNotReady_;
    unlistInactive(incoming);
    ++activeCtas_;
    warpsActive_ += fpIn.warpsPerCta;
    threadsActive_ += fpIn.threadsPerCta;
    slotFits_ = anyGridFits();
    in.stalledFor = 0;
    in.everSwapped = true;
    in.state = CtaState::SwappingIn;
    // Restore begins after the outgoing state is saved.
    in.transitionAt = now + config_.vtSwapOutLatency +
                      config_.vtSwapInLatency;
    noteTransition(in.transitionAt);
    ++swapIns_;
    ++gridSwapIns_[in.grid];
    traceStateChange(incoming, CtaState::SwappingIn, now);
}

void
VirtualThreadManager::repoll()
{
    const bool any_trigger =
        config_.vtSwapTrigger == VtSwapTrigger::AnyWarpStalled;
    for (const VirtualCtaId id : dirty_) {
        CtaRec &rec = ctas_[id];
        rec.dirty = false;
        if (!rec.resident || rec.state != CtaState::Active)
            continue;
        const bool stalled = any_trigger ? query_.ctaAnyWarpLongStalled(id)
                                         : query_.ctaFullyStalled(id);
        const bool was = rec.tracked && rec.stalledNow;
        if (!rec.tracked) {
            // First poll since activation: continue the recorded streak
            // (0, unless restored from a checkpoint mid-streak).
            rec.tracked = true;
            rec.stallStart = clock_ - rec.stalledFor;
        } else if (stalled && !was) {
            rec.stallStart = clock_;
        }
        rec.stalledNow = stalled;
        rec.longNow = stalled && (any_trigger ||
                                  query_.ctaAnyWarpLongStalled(id));
        if (stalled && !was)
            stalled_.push_back(id);
        else if (!stalled && was)
            stalled_.erase(std::find(stalled_.begin(), stalled_.end(), id));
    }
    dirty_.clear();
    pickVictim();
}

void
VirtualThreadManager::pickVictim()
{
    victim_ = invalidId;
    std::uint64_t best = 0;
    for (const VirtualCtaId id : stalled_) {
        const CtaRec &rec = ctas_[id];
        if (!triggerable(rec))
            continue;
        const std::uint64_t s = streak(rec);
        if (victim_ == invalidId || s > best || (s == best && id > victim_)) {
            victim_ = id;
            best = s;
        }
    }
}

void
VirtualThreadManager::reset()
{
    fps_ = {};
    activationBlocked_ = {};
    ctas_.clear();
    residentCount_ = 0;
    nextAge_ = 0;
    dynamicCap_ = std::numeric_limits<std::uint32_t>::max();
    activeCtas_ = 0;
    warpsActive_ = 0;
    threadsActive_ = 0;
    regsInUse_ = 0;
    sharedInUse_ = 0;
    clock_ = 0;
    unsampled_ = 0;
    rebuildDerived();
    swapOuts_.reset();
    swapIns_.reset();
    for (GridId g = 0; g < maxGrids; ++g) {
        gridSwapOuts_[g].reset();
        gridSwapIns_[g].reset();
    }
    freshActivations_.reset();
    swapInNotReady_.reset();
    residentSamples_.reset();
    activeSamples_.reset();
    swapStallStreak_.reset();
}

void
VirtualThreadManager::save(Serializer &ser) const
{
    const std::size_t sec = ser.beginSection("vtmg");
    static_assert(std::is_trivially_copyable_v<CtaFootprint>);
    for (const CtaFootprint &fp : fps_)
        ser.put(fp);
    for (std::uint8_t blocked : activationBlocked_)
        ser.put(blocked);
    // CtaRec mixes bools with wider fields, so it goes out field by
    // field to keep the bytes free of padding.
    ser.put<std::uint64_t>(ctas_.size());
    for (const CtaRec &cta : ctas_) {
        // A tracked CTA's streak and trigger are derived: write the
        // values the last tick's per-cycle count would have left.
        const std::uint32_t stalled_for =
            cta.tracked ? static_cast<std::uint32_t>(streak(cta))
                        : cta.stalledFor;
        const bool triggered =
            cta.tracked ? stalled_for >= config_.vtStallThreshold &&
                              triggerable(cta)
                        : cta.triggeredNow;
        ser.put<std::uint8_t>(cta.resident);
        ser.put<std::uint8_t>(static_cast<std::uint8_t>(cta.state));
        ser.put(cta.transitionAt);
        ser.put(cta.age);
        ser.put(stalled_for);
        ser.put<std::uint8_t>(cta.everSwapped);
        ser.put<std::uint8_t>(cta.stalledNow);
        ser.put<std::uint8_t>(triggered);
        ser.put(cta.grid);
    }
    ser.put(residentCount_);
    ser.put(nextAge_);
    ser.put(dynamicCap_);
    ser.put(activeCtas_);
    ser.put(warpsActive_);
    ser.put(threadsActive_);
    ser.put(regsInUse_);
    ser.put(sharedInUse_);
    saveStat(ser, swapOuts_);
    saveStat(ser, swapIns_);
    for (GridId g = 0; g < maxGrids; ++g) {
        saveStat(ser, gridSwapOuts_[g]);
        saveStat(ser, gridSwapIns_[g]);
    }
    saveStat(ser, freshActivations_);
    saveStat(ser, swapInNotReady_);
    ScalarStat resident = residentSamples_;
    ScalarStat active = activeSamples_;
    resident.sampleN(residentCount_, unsampled_);
    active.sampleN(activeCtas_, unsampled_);
    saveStat(ser, resident);
    saveStat(ser, active);
    saveStat(ser, swapStallStreak_);
    ser.endSection(sec);
}

void
VirtualThreadManager::restore(Deserializer &des)
{
    des.beginSection("vtmg");
    for (CtaFootprint &fp : fps_)
        des.get(fp);
    for (std::uint8_t &blocked : activationBlocked_)
        des.get(blocked);
    ctas_.resize(des.get<std::uint64_t>());
    for (CtaRec &cta : ctas_) {
        cta.resident = des.get<std::uint8_t>() != 0;
        cta.state = static_cast<CtaState>(des.get<std::uint8_t>());
        des.get(cta.transitionAt);
        des.get(cta.age);
        des.get(cta.stalledFor);
        cta.everSwapped = des.get<std::uint8_t>() != 0;
        cta.stalledNow = des.get<std::uint8_t>() != 0;
        cta.triggeredNow = des.get<std::uint8_t>() != 0;
        des.get(cta.grid);
    }
    des.get(residentCount_);
    des.get(nextAge_);
    des.get(dynamicCap_);
    des.get(activeCtas_);
    des.get(warpsActive_);
    des.get(threadsActive_);
    des.get(regsInUse_);
    des.get(sharedInUse_);
    restoreStat(des, swapOuts_);
    restoreStat(des, swapIns_);
    for (GridId g = 0; g < maxGrids; ++g) {
        restoreStat(des, gridSwapOuts_[g]);
        restoreStat(des, gridSwapIns_[g]);
    }
    restoreStat(des, freshActivations_);
    restoreStat(des, swapInNotReady_);
    restoreStat(des, residentSamples_);
    restoreStat(des, activeSamples_);
    restoreStat(des, swapStallStreak_);
    des.endSection();
    unsampled_ = 0;
    rebuildDerived();
}

void
VirtualThreadManager::rebuildDerived()
{
    for (GridId g = 0; g < maxGrids; ++g) {
        readyInactive_[g].clear();
        waitingInactive_[g].clear();
    }
    dirty_.clear();
    stalled_.clear();
    victim_ = invalidId;
    nextTransition_ = neverCycle;
    for (VirtualCtaId id = 0; id < ctas_.size(); ++id) {
        CtaRec &rec = ctas_[id];
        if (!rec.resident)
            continue;
        rec.ready = query_.ctaPendingOffChip(id) == 0;
        rec.dirty = false;
        switch (rec.state) {
          case CtaState::Active: enterActive(id); break;
          case CtaState::Inactive: listInactive(id); break;
          case CtaState::SwappingOut:
          case CtaState::SwappingIn: noteTransition(rec.transitionAt); break;
        }
    }
    slotFits_ = anyGridFits();
}

void
VirtualThreadManager::verifyDerivedState() const
{
    std::vector<VirtualCtaId> stalled;
    std::array<AgeList, maxGrids> ready{}, waiting{};
    Cycle next = neverCycle;
    for (VirtualCtaId id = 0; id < ctas_.size(); ++id) {
        const CtaRec &rec = ctas_[id];
        if (!rec.resident)
            continue;
        const bool is_ready = query_.ctaPendingOffChip(id) == 0;
        VTSIM_ASSERT(rec.ready == is_ready, "cached readiness of CTA ", id,
                     " diverged from its off-chip total");
        if (rec.state == CtaState::Active) {
            // Polled and unchanged since: the cached answers must match
            // a fresh poll.
            if (rec.dirty)
                continue;
            const bool any_trigger =
                config_.vtSwapTrigger == VtSwapTrigger::AnyWarpStalled;
            const bool stalled_now = any_trigger
                                         ? query_.ctaAnyWarpLongStalled(id)
                                         : query_.ctaFullyStalled(id);
            VTSIM_ASSERT(rec.tracked && rec.stalledNow == stalled_now &&
                             (!stalled_now ||
                              rec.longNow ==
                                  (any_trigger ||
                                   query_.ctaAnyWarpLongStalled(id))),
                         "cached stall poll of CTA ", id,
                         " diverged on sm ", smId_);
            if (stalled_now)
                stalled.push_back(id);
        } else if (rec.state == CtaState::Inactive) {
            (is_ready ? ready : waiting)[rec.grid].push_back({rec.age, id});
        } else {
            next = std::min(next, rec.transitionAt);
        }
    }
    std::vector<VirtualCtaId> listed;
    for (const VirtualCtaId id : stalled_) {
        if (!ctas_[id].dirty)
            listed.push_back(id);
    }
    std::sort(listed.begin(), listed.end());
    VTSIM_ASSERT(stalled == listed, "stalled list diverged on sm ", smId_);
    for (GridId g = 0; g < maxGrids; ++g) {
        std::sort(ready[g].begin(), ready[g].end());
        std::sort(waiting[g].begin(), waiting[g].end());
        VTSIM_ASSERT(ready[g] == readyInactive_[g] &&
                         waiting[g] == waitingInactive_[g],
                     "inactive lists of grid ", g, " diverged on sm ",
                     smId_);
    }
    VTSIM_ASSERT(next == nextTransition_,
                 "cached next transition diverged on sm ", smId_);
    VTSIM_ASSERT(slotFits_ == anyGridFits(),
                 "cached slot-fit answer diverged on sm ", smId_);
}

} // namespace vtsim
