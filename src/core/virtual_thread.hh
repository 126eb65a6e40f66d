/**
 * @file
 * The Virtual Thread (VT) architecture of Yoon et al., ISCA 2016 — the
 * paper's primary contribution.
 *
 * One VirtualThreadManager per SM owns the CTA residency state machine:
 *
 *   admit -> Active ----------------------------> finished
 *              | all warps long-latency stalled
 *              v
 *        SwappingOut -(swapOutLatency)-> Inactive
 *                                           | chosen for swap-in
 *                                           v
 *                                       SwappingIn -(swapInLatency)-> Active
 *
 * CTAs are admitted up to the *capacity* limit (register file + shared
 * memory), ignoring the scheduling limit; only the *active* subset
 * respects the scheduling limit (warp slots, CTA slots, thread slots).
 * Because inactive CTAs keep their registers and shared memory resident,
 * a swap moves only the small scheduling state, whose cost is the
 * configured swap latencies.
 *
 * With vtEnabled == false the same class degrades to the baseline
 * machine: admission respects the scheduling limit and every resident
 * CTA is Active.
 */

#ifndef VTSIM_CORE_VIRTUAL_THREAD_HH
#define VTSIM_CORE_VIRTUAL_THREAD_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "config/gpu_config.hh"
#include "sim/serializer.hh"
#include "stats/stats.hh"

namespace vtsim::telemetry {
class TraceJsonWriter;
}

namespace vtsim {

/**
 * What the VT manager needs to observe about CTAs; implemented by SmCore
 * (and by mocks in unit tests).
 */
class VtCtaQuery
{
  public:
    virtual ~VtCtaQuery() = default;

    /** True when no live warp of the CTA could issue this cycle for
     *  warp-local reasons (dependences, barrier), ignoring per-cycle
     *  structural ports. Asked of Active CTAs at the VT tick only, after
     *  a flip reported through VirtualThreadManager::onCtaStallChanged
     *  or an activation: the answers are cached between polls. */
    virtual bool ctaFullyStalled(VirtualCtaId id) const = 0;

    /** True when at least one warp of the CTA is blocked waiting on an
     *  off-chip (long-latency) memory dependence. Asked of Active CTAs
     *  at the VT tick only. */
    virtual bool ctaAnyWarpLongStalled(VirtualCtaId id) const = 0;

    /**
     * Outstanding off-chip transactions across the CTA's warps. The
     * manager reads it only when it (re)builds its cached readiness — at
     * admission, on restore and in the oracle; afterwards the owner
     * reports every zero/non-zero flip through
     * VirtualThreadManager::onCtaReadinessChanged.
     */
    virtual std::uint32_t ctaPendingOffChip(VirtualCtaId id) const = 0;

    /**
     * The CTA's issuability (isIssuable()) just flipped: it entered
     * (@p issuable) or left (!@p issuable) the Active state. Fired
     * *after* the state change, so isIssuable(@p id) already reports the
     * new value. SmCore uses this to publish/retract the CTA's warps in
     * its incremental ready sets; not every observer needs it, hence the
     * default no-op. A finished CTA fires no flip — the owner retires it
     * through onCtaFinished and has retired all its warps already.
     */
    virtual void onCtaIssuableChanged(VirtualCtaId id, bool issuable)
    {
        (void)id;
        (void)issuable;
    }
};

/** Residency state of one virtual CTA. */
enum class CtaState : std::uint8_t
{
    Active,      ///< Occupies scheduling structures; warps may issue.
    SwappingOut, ///< Scheduling state being saved; frozen.
    Inactive,    ///< Resident in RF/shared memory only; frozen.
    SwappingIn,  ///< Scheduling state being restored; frozen.
};

std::string toString(CtaState state);

/** Per-kernel CTA resource footprint, in the SM's allocation units. */
struct CtaFootprint
{
    std::uint32_t warpsPerCta = 0;
    std::uint32_t threadsPerCta = 0;
    std::uint32_t regsPerCta = 0;    ///< After warp-granularity rounding.
    std::uint32_t sharedPerCta = 0;  ///< After allocation rounding.
};

class VirtualThreadManager
{
  public:
    VirtualThreadManager(const GpuConfig &config, VtCtaQuery &query,
                         SmId sm_id);

    /** Set the footprint all CTAs of the running kernel share
     *  (solo launch: grid 0). */
    void configureKernel(const CtaFootprint &footprint)
    { configureGrid(0, footprint); }

    /** Set the per-CTA footprint of one co-resident grid. Call for
     *  every grid of a concurrent launch before any admission. */
    void configureGrid(GridId grid, const CtaFootprint &footprint);

    /** Can one more CTA of @p grid be admitted (VT: capacity limit
     *  only; baseline: scheduling and capacity limits)? */
    bool canAdmit(GridId grid = 0) const;

    /** A new CTA arrived from the dispatcher. Freshly launched CTAs
     *  activate immediately when an active slot is free (CTA launch
     *  initialisation is free in baseline and VT alike). */
    void onAdmit(VirtualCtaId id, Cycle now, GridId grid = 0);

    /** The CTA retired all its warps. */
    void onCtaFinished(VirtualCtaId id, Cycle now);

    /**
     * The resident CTA's outstanding off-chip total (ctaPendingOffChip)
     * just flipped: to zero (@p ready) or away from it. The owner must
     * report every flip; swap-in candidate selection reads only this
     * cached readiness and never queries back.
     */
    void onCtaReadinessChanged(VirtualCtaId id, bool ready);

    /** The stall answers of CTA @p id may have flipped: re-poll it at
     *  the next tick. The owner must report every flip of the answers
     *  the configured trigger reads (ignored unless @p id is Active). */
    void onCtaStallChanged(VirtualCtaId id)
    {
        if (id < ctas_.size() && ctas_[id].resident &&
            ctas_[id].state == CtaState::Active && !ctas_[id].dirty) {
            ctas_[id].dirty = true;
            dirty_.push_back(id);
        }
    }

    /** Advance the state machine one cycle. Costs O(1) unless a swap
     *  completes, a slot is free, a CTA awaits a re-poll or a streak has
     *  reached the swap threshold. */
    void tick(Cycle now)
    {
        ++unsampled_;
        if (!config_.vtEnabled)
            return;
        ++clock_;
        if (now >= nextTransition_ || slotFits_ || !dirty_.empty() ||
            armed())
            step(now);
    }

    /**
     * Earliest cycle >= @p now at which tick() might change state given
     * no external event (memory completion, issue, admission) happens
     * first: a Swapping* transition completing, or a stalled Active
     * CTA's streak first reaching the swap threshold. neverCycle when
     * only external events can change the machine.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Account @p n ticked-but-eventless cycles in one step: per-cycle
     * residency samples, and stall-streak growth of stalled Active
     * CTAs. Only valid over a window where every input the state
     * machine reads is constant and no transition or threshold
     * crossing occurs (i.e. nextEventCycle() lies beyond the window).
     */
    void fastForwardIdle(std::uint64_t n);

    /** Apply the residency samples deferred since the counts last
     *  changed (call before reading the stats). */
    void settleSamples();

    /** Warps of @p id may issue only when it is Active.
     *  Inline: this sits on the per-warp issue fast path. */
    bool isIssuable(VirtualCtaId id) const
    {
        return id < ctas_.size() && ctas_[id].resident &&
               ctas_[id].state == CtaState::Active;
    }

    /**
     * Externally imposed cap on active CTAs (CTA throttling). Applied
     * lazily: already-active CTAs are unaffected; activations above the
     * cap are deferred.
     */
    void setActiveCap(std::uint32_t cap)
    {
        if (cap != dynamicCap_) {
            dynamicCap_ = cap;
            slotFits_ = anyGridFits();
        }
    }
    std::uint32_t activeCap() const { return dynamicCap_; }

    /**
     * Block (or unblock) activations of @p grid's CTAs: blocked grids
     * are skipped by swap-in / free-slot-fill candidate selection, so
     * their resident CTAs park Inactive. Already-active CTAs are not
     * touched — pair with forceSwapOut to vacate them. Used by the
     * preempt sharing policy at its decision boundaries.
     */
    void setGridActivationBlocked(GridId grid, bool blocked)
    { activationBlocked_[grid] = blocked ? 1 : 0; }
    bool gridActivationBlocked(GridId grid) const
    { return activationBlocked_[grid] != 0; }

    /**
     * Preempt one Active CTA: swap it out now regardless of its stall
     * state (Pai et al.-style preemptive thread-block scheduling). The
     * freed active slot is NOT immediately refilled — the caller decides
     * who runs next (blocked grids would otherwise race back in).
     * Requires vtEnabled (the swap machinery completes the transition).
     */
    void forceSwapOut(VirtualCtaId id, Cycle now);

    CtaState state(VirtualCtaId id) const;
    /** Grid the resident CTA in slot @p id belongs to. */
    GridId gridOf(VirtualCtaId id) const;
    std::uint32_t residentCtas() const { return residentCount_; }
    /** Earliest cycle an in-flight swap transition completes; neverCycle
     *  when no CTA is swapping. */
    Cycle nextTransition() const { return nextTransition_; }
    std::uint32_t activeCtas() const { return activeCtas_; }

    // --- Capacity bookkeeping (for FIG-2 utilisation) ---------------------
    std::uint32_t regsInUse() const { return regsInUse_; }
    std::uint32_t sharedInUse() const { return sharedInUse_; }
    std::uint32_t warpsActive() const { return warpsActive_; }
    std::uint32_t threadsActive() const { return threadsActive_; }

    // --- Stats -------------------------------------------------------------
    std::uint64_t swapOuts() const { return swapOuts_.value(); }
    std::uint64_t swapIns() const { return swapIns_.value(); }
    std::uint64_t gridSwapOuts(GridId g) const
    { return gridSwapOuts_.at(g).value(); }
    std::uint64_t gridSwapIns(GridId g) const
    { return gridSwapIns_.at(g).value(); }
    StatGroup &stats() { return stats_; }

    /**
     * Route residency transitions to a per-Gpu Perfetto writer (null
     * disables). Each CTA slot becomes a trace "thread" (pid = SM id,
     * tid = slot) carrying back-to-back duration events named after the
     * residency state — admit/finish are instant markers.
     */
    void setTraceJson(telemetry::TraceJsonWriter *writer)
    { traceJson_ = writer; }

    // Checkpoint plumbing (driven by the owning SmCore). Only the CTA
    // records, counters and stats are serialized; restore() rebuilds the
    // derived lists and caches below from them.
    void reset();
    void save(Serializer &ser) const;
    void restore(Deserializer &des);

    /** Oracle: recompute every derived list and cache from the CTA
     *  records (readiness from the query) and assert they match. */
    void verifyDerivedState() const;

  private:
    struct CtaRec
    {
        bool resident = false;   ///< Slot holds a live CTA.
        CtaState state = CtaState::Active;
        Cycle transitionAt = 0;  ///< When the current Swapping* finishes.
        std::uint64_t age = 0;   ///< Admission order.
        /** Consecutive stalled cycles, and the stall poll / swap trigger
         *  as the last VT tick saw them. While `tracked`, streak() and
         *  triggerable() hold the live values; leaveActive() writes them
         *  back. */
        std::uint32_t stalledFor = 0;
        bool everSwapped = false;
        bool stalledNow = false;
        bool triggeredNow = false;
        /** Owning grid (concurrent launches; solo CTAs are grid 0). */
        GridId grid = 0;
        /** Cached ctaPendingOffChip(id) == 0 (derived, not serialized). */
        bool ready = true;
        // Derived, not serialized: polled since it became Active; queued
        // in dirty_; ctaAnyWarpLongStalled at the last poll (if stalled);
        // clock_ at the streak's first cycle.
        bool tracked = false;
        bool dirty = false;
        bool longNow = false;
        std::uint64_t stallStart = 0;
    };

    /** (admission age, slot) pairs in ascending age order: oldest first. */
    using AgeList = std::vector<std::pair<std::uint64_t, VirtualCtaId>>;

    /** Would one more Active CTA with footprint @p fp fit the
     *  scheduling limit right now? */
    bool activeSlotFreeFor(const CtaFootprint &fp) const;
    void activate(VirtualCtaId id, Cycle now);
    void releaseActiveSlot(const CtaFootprint &fp);
    /** Best inactive CTA to bring in, or invalidId. When
     *  @p require_ready is set (swap decisions under ReadyFirst), only a
     *  CTA with no outstanding data qualifies. O(grids): reads the fronts
     *  of the per-grid inactive lists. */
    VirtualCtaId pickSwapIn(bool require_ready) const;

    // Derived-state upkeep, called at every residency transition.
    /** Became Active: untracked until the next tick polls it. */
    void enterActive(VirtualCtaId id);
    /** Leaves Active: write the live streak back into the record. */
    void leaveActive(VirtualCtaId id);
    /** Enter / leave the Inactive lists (by the CTA's cached readiness). */
    void listInactive(VirtualCtaId id);
    void unlistInactive(VirtualCtaId id);
    void noteTransition(Cycle at)
    { nextTransition_ = std::min(nextTransition_, at); }
    /** Does some configured grid's footprint fit a free active slot?
     *  Cached in slotFits_ whenever the active counts, the cap or a
     *  footprint change. */
    bool anyGridFits() const;
    /** Rebuild every derived list and cache from the CTA records. */
    void rebuildDerived();

    /** tick()'s slow path: transitions, slot fills, re-polls, swaps. */
    void step(Cycle now);
    /** Live streak of a tracked CTA. */
    std::uint64_t streak(const CtaRec &rec) const
    { return rec.stalledNow ? clock_ - rec.stallStart + 1 : 0; }
    /** Stalled and meeting the trigger's long-latency condition. */
    bool triggerable(const CtaRec &rec) const
    {
        return rec.stalledNow &&
               (rec.longNow ||
                config_.vtSwapTrigger == VtSwapTrigger::AnyWarpStalled);
    }
    /** Some streak has reached the threshold. */
    bool armed() const
    {
        return victim_ != invalidId &&
               streak(ctas_[victim_]) >= config_.vtStallThreshold;
    }
    /** Re-poll the dirty CTAs and re-derive stalled_ and victim_. */
    void repoll();
    /** victim_: the triggerable stalled CTA with the longest streak, the
     *  higher slot on ties (the order the per-cycle rule used). */
    void pickVictim();

    /** Close slot @p id's open residency span and open @p state's. */
    void traceStateChange(VirtualCtaId id, CtaState state, Cycle now);

    const GpuConfig &config_;
    VtCtaQuery &query_;
    SmId smId_;
    telemetry::TraceJsonWriter *traceJson_ = nullptr;
    /** Per-grid CTA footprints (solo launches configure only slot 0). */
    std::array<CtaFootprint, maxGrids> fps_{};
    /** Grids whose activations are blocked (preempt policy). */
    std::array<std::uint8_t, maxGrids> activationBlocked_{};

    /** Slot-indexed (SmCore hands out dense, reused slot ids); iterating
     *  in index order matches the admission-map order it replaces. */
    std::vector<CtaRec> ctas_;
    std::uint32_t residentCount_ = 0;
    std::uint64_t nextAge_ = 0;
    std::uint32_t dynamicCap_ =
        std::numeric_limits<std::uint32_t>::max();

    std::uint32_t activeCtas_ = 0;
    std::uint32_t warpsActive_ = 0;
    std::uint32_t threadsActive_ = 0;
    std::uint32_t regsInUse_ = 0;
    std::uint32_t sharedInUse_ = 0;

    // --- Derived state (see ARCHITECTURE.md "The Virtual Thread manager")
    /** Counts VT ticks and fast-forwarded cycles: the streak clock. */
    std::uint64_t clock_ = 0;
    /** Ticks whose residency samples settleSamples() still owes. */
    std::uint64_t unsampled_ = 0;
    /** Active CTAs to re-poll at the next tick (all untracked ones). */
    std::vector<VirtualCtaId> dirty_;
    /** Tracked Active CTAs whose last poll said stalled. */
    std::vector<VirtualCtaId> stalled_;
    VirtualCtaId victim_ = invalidId;
    /** Inactive CTAs per grid, split by cached readiness. */
    std::array<AgeList, maxGrids> readyInactive_;
    std::array<AgeList, maxGrids> waitingInactive_;
    /** Earliest transitionAt of a Swapping* CTA (neverCycle if none). */
    Cycle nextTransition_ = neverCycle;
    /** Some configured grid's footprint fits a free active slot. */
    bool slotFits_ = false;

    StatGroup stats_;
    Counter swapOuts_;
    Counter swapIns_;
    std::array<Counter, maxGrids> gridSwapOuts_;
    std::array<Counter, maxGrids> gridSwapIns_;
    Counter freshActivations_;
    Counter swapInNotReady_; ///< Swap-ins of CTAs still awaiting data.
    ScalarStat residentSamples_;
    ScalarStat activeSamples_;
    /** Victim stall-streak length at each swap-out decision — the
     *  interval sampler's swap-latency series (p50/p95 per interval).
     *  Event-driven, so fast-forward windows cannot split a sample. */
    Histogram swapStallStreak_{32, 8.0};
};

} // namespace vtsim

#endif // VTSIM_CORE_VIRTUAL_THREAD_HH
