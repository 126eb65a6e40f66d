/**
 * @file
 * One streaming multiprocessor: warp contexts grouped into virtual CTAs,
 * warp schedulers, execution timing, the LDST unit, barriers, and the
 * Virtual Thread manager that decides which CTAs may issue.
 */

#ifndef VTSIM_SM_SM_CORE_HH
#define VTSIM_SM_SM_CORE_HH

#include <array>
#include <deque>
#include <memory>
#include <tuple>
#include <thread>
#include <vector>

#include "config/gpu_config.hh"
#include "core/virtual_thread.hh"
#include "cta/cta_dispatcher.hh"
#include "cta/cta_throttler.hh"
#include "func/exec_context.hh"
#include "isa/kernel.hh"
#include "mem/shared_memory.hh"
#include "sm/barrier_manager.hh"
#include "sm/ldst_unit.hh"
#include "sm/warp_context.hh"
#include "sm/warp_scheduler.hh"
#include "stats/stats.hh"

namespace vtsim::telemetry {
class StatRegistry;
class TraceJsonWriter;
}

namespace vtsim {

class GlobalMemory;
class Interconnect;

/** Why a scheduler slot issued nothing in a cycle (FIG-8 breakdown). */
struct StallBreakdown
{
    std::uint64_t issued = 0;       ///< Scheduler-cycles that issued.
    std::uint64_t memStall = 0;     ///< Blocked on off-chip memory.
    std::uint64_t shortStall = 0;   ///< Blocked on short dependences/ports.
    std::uint64_t barrierStall = 0; ///< Everyone parked at a barrier.
    std::uint64_t swapStall = 0;    ///< Only swap-frozen CTAs resident.
    std::uint64_t idle = 0;         ///< No warps at all.
};

class SmCore : public SimComponent, public LdstClient, public VtCtaQuery
{
  public:
    SmCore(SmId id, const GpuConfig &config, Interconnect &noc);

    /**
     * Start binding the grids of one (possibly concurrent) launch: the
     * SM must be empty; previous bindings are dropped. Follow with one
     * bindGrid() per co-resident grid.
     */
    void beginGridBinding(GlobalMemory &gmem);

    /** Bind grid @p grid's kernel and launch shape and configure its
     *  CTA footprint in the VT manager. */
    void bindGrid(GridId grid, const Kernel &kernel,
                  const LaunchParams &launch);

    /** Bind the single kernel this SM will run (solo launch). */
    void launchKernel(const Kernel &kernel, const LaunchParams &launch,
                      GlobalMemory &gmem)
    {
        beginGridBinding(gmem);
        bindGrid(0, kernel, launch);
    }

    /**
     * Re-attach one grid's kernel/launch/memory bindings after a
     * checkpoint restore: unlike bindGrid() this neither requires an
     * empty SM nor reconfigures the VT manager — the restored state
     * already carries both.
     */
    void rebindGrid(GridId grid, const Kernel &kernel,
                    const LaunchParams &launch, GlobalMemory &gmem);

    /** Solo-restore shorthand for rebindGrid(0, ...). */
    void rebindKernel(const Kernel &kernel, const LaunchParams &launch,
                      GlobalMemory &gmem)
    {
        rebindGrid(0, kernel, launch, gmem);
    }

    /** True when another CTA of @p grid can be admitted right now. */
    bool canAdmitCta(GridId grid = 0) const;

    /** Admit one CTA of @p grid from its dispatcher. */
    void admitCta(const CtaAssignment &assignment, Cycle now,
                  GridId grid = 0);

    /**
     * Preempt-policy hook: force-swap-out up to @p max_ctas Active CTAs
     * of @p grid (lowest slot first), freeing their scheduling slots
     * for a higher-priority grid. Returns how many were swapped.
     * Requires the VT machine (vtEnabled).
     */
    std::uint32_t forcePreemptGrid(GridId grid, std::uint32_t max_ctas,
                                   Cycle now);

    /** A CTA of @p grid is resident here but not Active (swap-frozen or
     *  parked Inactive) — the preempt policy's signal that vacating an
     *  active slot on this SM would let @p grid progress. */
    bool hasInactiveCta(GridId grid) const;

    /** Block/unblock activations of @p grid (preempt policy); forwards
     *  to the VT manager after settling lazy-tick state. */
    void setGridActivationBlocked(GridId grid, bool blocked)
    {
        onExternalEvent();
        vt_.setGridActivationBlocked(grid, blocked);
    }

    /** Advance one cycle. */
    void tick(Cycle now) override;

    /**
     * Earliest cycle >= @p now at which tick() might do real work given
     * no admission and no NoC delivery happens first: a warp becoming
     * ready or issuable, a writeback or L1-hit maturing, a VT transition
     * or swap-threshold crossing, a throttle-epoch boundary, or the
     * shared-memory port freeing. neverCycle when the SM is fully
     * event-blocked (e.g. every live warp waits on off-chip memory).
     * Non-const: flushes deferred idle-tick accounting first.
     */
    Cycle nextEventCycle(Cycle now) override;

    /** Cache-free recomputation for the horizon oracle: same answer a
     *  fresh SM in this state would give, bypassing the lazy-window
     *  horizon cached by tick(). */
    Cycle nextEventCycleFresh(Cycle now) override;

    /**
     * Bring all per-cycle accounting up to date through cycle
     * @p cycle - 1, exactly as empty tick() calls would have: per-cycle
     * stat samples, stall-bubble classification, VT stall streaks and
     * throttler-epoch observations. Only valid when
     * nextEventCycle() >= @p cycle. Cycle @p cycle itself is left for
     * the next real tick.
     */
    void settleTo(Cycle cycle) override;

    // SimComponent lifecycle: return to the just-constructed state /
    // checkpoint the full SM (CTAs, warps, ready sets, LDST, VT,
    // barriers, schedulers, stats).
    void reset() override;
    void save(Serializer &ser) const override;
    void restore(Deserializer &des) override;

    /**
     * Apply deferred accounting of lazily skipped ticks (see tick()).
     * Called automatically before any state change or query that could
     * observe the deferral; public so Gpu can settle accounts before
     * reading final statistics.
     */
    void flushFastForward();

    /** No resident CTAs and no memory traffic in flight. */
    bool idle() const;

    /** The last cycle this SM issued an instruction or admitted a CTA
     *  (neverCycle before the first). Not machine state: the sharded
     *  epoch loop reads it to skip a horizon jump right after a busy
     *  cycle, as the sequential loop does. */
    Cycle lastBusyCycle() const { return lastBusy_; }

    /** Invalidate L1 (kernel boundary). */
    void flushCaches()
    {
        onExternalEvent();
        ldst_.flushCaches();
    }

    SmId id() const { return id_; }
    LdstUnit &ldst() { return ldst_; }
    VirtualThreadManager &vt() { return vt_; }
    const VirtualThreadManager &vt() const { return vt_; }
    /** Null unless throttleEnabled. */
    CtaThrottler *throttler() { return throttler_.get(); }

    std::uint64_t instructionsIssued() const
    { return instructionsIssued_.value(); }
    std::uint64_t threadInstructions() const
    { return threadInstructions_.value(); }
    std::uint64_t ctasCompleted() const { return ctasCompleted_.value(); }
    /** CTAs of one grid retired on this SM (concurrent launches; the
     *  preempt policy's online progress estimate reads this). */
    std::uint64_t gridCtasCompleted(GridId g) const
    { return gridCtasCompleted_.at(g).value(); }
    const StallBreakdown &stallBreakdown() const { return stalls_; }
    std::uint32_t maxSimtDepthSeen() const { return maxSimtDepth_; }
    StatGroup &stats() { return stats_; }

    /** Flatten every stat group this SM owns (core, VT, LDST, L1,
     *  shared memory, throttler) into @p reg and tag the probes that
     *  feed KernelStats. Call once, after construction. */
    void registerTelemetry(telemetry::StatRegistry &reg);

    /** Route this SM's trace events (VT residency, barrier releases)
     *  to a per-Gpu Perfetto writer; null disables. */
    void setTraceJson(telemetry::TraceJsonWriter *writer);

    // --- Memory-trace record/replay (mem/mtrace.hh) -------------------------

    /** Record mode: stream every coalesced global transaction and
     *  barrier arrival of this SM to @p writer; null disables. */
    void setMtrace(MtraceWriter *writer);

    /**
     * Enter replay mode: instead of executing warps, this SM injects
     * @p slice — the trace's access records for this SM, cycles
     * relative to the launch marker — into its LDST unit on schedule.
     * @p base is the simulation cycle that corresponds to trace
     * cycle 0. The SM admits no CTAs in this mode and is idle once the
     * cursor and the memory system drain.
     */
    void beginReplay(const std::vector<MtraceAccess> *slice, Cycle base);

    /** Re-attach the (unserialized) trace slice after a checkpoint
     *  restore; the restored cursor and base pick up where the
     *  recording left off. */
    void resumeReplay(const std::vector<MtraceAccess> *slice);

    bool replaying() const { return replayMode_; }

    // --- Sharded-epoch support (docs/ARCHITECTURE.md "Sharded
    // simulation") -----------------------------------------------------------

    /**
     * One global-memory instruction issued while the epoch log was
     * armed. The per-SM log is in issue order; concatenating the SM
     * logs in SM order and stable-sorting by cycle reproduces the exact
     * global-memory op order of the sequential run, which the barrier
     * replay applies against settled memory.
     */
    struct EpochMemOp
    {
        Cycle cycle;
        VirtualCtaId slot;
        std::uint32_t warpInCta;
        Opcode op;
        RegIndex dst; ///< noReg when the op has no destination.
        std::vector<LaneAccess> accesses;
    };

    /** Arm the epoch log: every global LDG/STG/ATOMG_ADD issued from now
     *  on is recorded (the functional write side is deferred by
     *  GlobalMemory::setDeferWrites, driven by the Gpu epoch driver). */
    void beginEpochMemLog()
    {
        epochMemLog_.clear();
        epochLogging_ = true;
    }
    void endEpochMemLog() { epochLogging_ = false; }
    const std::vector<EpochMemOp> &epochMemLog() const
    { return epochMemLog_; }

    /** Overwrite a lane's destination register after the barrier replay
     *  observed a different value than the deferred-write functional
     *  pass did. Sound mid-epoch: the register is scoreboard-held until
     *  the load completes, which is past the epoch end. */
    void patchLaneReg(VirtualCtaId slot, std::uint32_t warp_in_cta,
                      std::uint32_t lane, RegIndex dst, std::uint32_t value)
    {
        ctas_[slot].func.writeReg(warp_in_cta * warpSize + lane, dst,
                                  value);
    }

    /** Debug-only thread-confinement check: during a sharded epoch only
     *  the owning shard worker may tick this SM. Default-constructed id
     *  disables the check (sequential mode). */
    void setEpochOwner(std::thread::id owner) { epochOwner_ = owner; }

    // --- LdstClient ---------------------------------------------------------
    void loadComplete(VirtualCtaId vcta, std::uint32_t warp_in_cta,
                      RegIndex dst) override;
    void offChipIssued(VirtualCtaId vcta,
                       std::uint32_t warp_in_cta) override;
    void offChipReturned(VirtualCtaId vcta,
                         std::uint32_t warp_in_cta) override;
    void responseArriving(Cycle now) override;

    // --- VtCtaQuery ---------------------------------------------------------
    bool ctaFullyStalled(VirtualCtaId id) const override;
    bool ctaAnyWarpLongStalled(VirtualCtaId id) const override;
    std::uint32_t ctaPendingOffChip(VirtualCtaId id) const override;
    void onCtaIssuableChanged(VirtualCtaId id, bool issuable) override;

  private:
    /** One resident (virtual) CTA: functional state + warp contexts. */
    struct VirtualCta
    {
        bool valid = false;
        /** Owning grid of a concurrent launch (solo CTAs: grid 0). */
        GridId grid = 0;
        std::uint64_t age = 0;
        CtaFuncState func;
        std::vector<WarpContext> warps;
        /** Warp indices per scheduler slot — the (age * warps + w) %
         *  schedulers interleaving, precomputed once at admission so the
         *  ready-set oracle's full scan visits each warp exactly once. */
        std::vector<std::vector<std::uint32_t>> schedWarps;
        /** Live warps per scheduler slot: lets the bubble classifier
         *  account for frozen or fully retired CTAs without visiting
         *  their warps. */
        std::vector<std::uint32_t> aliveBySched;
        /** Live warps parked at the barrier, per scheduler slot. */
        std::vector<std::uint32_t> barrierBySched;
        /** Live warps with >= 1 off-chip transaction outstanding, per
         *  scheduler slot: with barrierBySched, the counters the bubble
         *  classifier reads instead of scanning warps. */
        std::vector<std::uint32_t> offchipBySched;
        /** Sum of offchipBySched (derived, rebuilt on restore). */
        std::uint32_t offchipWarps = 0;
        std::uint32_t warpsAlive = 0;
        /** Sum of the warps' pendingOffChip counts; its zero/non-zero
         *  flips are the VT manager's swap-in readiness notifications. */
        std::uint32_t pendingOffChipTotal = 0;
        /**
         * Derived from the ready lists (rebuilt on restore, never
         * checkpointed): per warp, 0 or 1 + the PortClass of its next
         * instruction when its key is listed; the number of listed
         * warps; and how many of those have >= 1 off-chip transaction
         * outstanding. They answer the VT stall poll in O(1) — see
         * ctaFullyStalled().
         */
        std::vector<std::uint8_t> listed;
        std::uint32_t readyMembers = 0;
        std::uint32_t readyOffchip = 0;
    };

    /** Port class of an instruction: the budget and port its issue
     *  needs. A listed warp caches its next instruction's class. */
    enum PortClass : std::uint8_t
    {
        ControlPort,
        AluPort,
        SfuPort,
        GlobalPort,
        SharedPort,
        numPortClasses
    };
    static std::uint8_t portClass(const Instruction &inst)
    {
        switch (inst.funcUnit()) {
          case FuncUnit::Control: return ControlPort;
          case FuncUnit::Alu: return AluPort;
          case FuncUnit::Sfu: return SfuPort;
          case FuncUnit::Mem: break;
        }
        return inst.isGlobalMem() ? GlobalPort : SharedPort;
    }
    /** Per-cycle structural budgets, reset each tick: control (unbounded),
     *  ALU, SFU, and the LD/ST slots both memory classes share. */
    using IssueBudgets = std::array<std::uint32_t, 4>;
    static constexpr std::array<std::uint8_t, numPortClasses> budgetSlot{
        0, 1, 2, 3, 3};
    /** Whether each class's port accepts an issue this cycle. */
    using PortsOpen = std::array<bool, numPortClasses>;
    /** Listed warps of one scheduler by (port class, off-chip), at
     *  class * 2 + (pendingOffChip > 0). */
    using ClassCounts = std::array<std::uint32_t, 2 * numPortClasses>;

    /** Attribution of a scheduler-cycle that issued nothing. */
    enum class BubbleKind : std::uint8_t
    {
        Idle,
        Mem,
        Barrier,
        Swap,
        Short,
    };

    void issueWarp(VirtualCta &cta, VirtualCtaId slot, WarpContext &warp,
                   const Instruction &inst, Cycle now);
    void maybeReleaseBarrier(VirtualCtaId slot, Cycle now);
    void finishCta(VirtualCtaId slot, Cycle now);
    /** Whether some warp listed on scheduler @p s may issue, and the
     *  attribution of its empty slot, from its class counts alone:
     *  valid while no listed warp has readyAt > now. */
    bool anyClassIssuable(std::uint32_t s, const PortsOpen &open,
                          const IssueBudgets &budgets) const;
    BubbleKind countedBubble(std::uint32_t s, const PortsOpen &open) const;
    /** The attribution itself, given what a walk of scheduler @p s's
     *  ready list found: whether a listed off-chip warp could not
     *  issue, and how many listed warps are off-chip. */
    BubbleKind bubbleKind(std::uint32_t s, bool mem_blocked,
                          std::uint32_t ready_offchip) const;
    /** The nextEventCycle() min-reduction itself, over settled state.
     *  Non-const only because LdstUnit::nextEventCycle is (it overrides
     *  the non-const SimComponent signature); it mutates nothing. */
    Cycle computeNextEvent(Cycle now);
    void chargeBubble(BubbleKind kind, std::uint64_t n);
    /** The per-cycle bookkeeping of @p n eventless ticks at @p now. */
    void accountIdleCycles(Cycle now, std::uint64_t n);
    /** State changed from outside tick(): settle and drop the cached
     *  idle horizon. */
    void onExternalEvent();
    /** Account the lazily counted ticks (flushFastForward() minus the
     *  VT manager's deferred residency samples). */
    void settleWindow();

    // --- Incremental ready sets --------------------------------------------
    /** Packed ready-list key: the scheduler rank age * 256 + w above the
     *  CTA slot (WarpScheduler::payloadBits), so ascending order is the
     *  order every policy ranks warps in and each CTA's keys form one
     *  contiguous range. admitCta() and restore() check readyKeyFits(). */
    static std::uint64_t readyKey(const VirtualCta &cta, VirtualCtaId slot,
                                  std::uint32_t w)
    { return ((cta.age * 256 + w) << WarpScheduler::payloadBits) | slot; }
    /** Whether readyKey() encodes every warp of @p cta at @p slot. */
    static bool readyKeyFits(const VirtualCta &cta, VirtualCtaId slot)
    {
        return slot < (1u << WarpScheduler::payloadBits) &&
               cta.warps.size() <= 256 &&
               cta.age < (1ull << (64 - WarpScheduler::payloadBits - 8));
    }
    static VirtualCtaId readySlot(std::uint64_t key)
    { return key & ((1u << WarpScheduler::payloadBits) - 1); }
    static std::uint32_t readyWarp(std::uint64_t key)
    { return WarpScheduler::rank(key) & 0xff; }

    /** The warp-local, time-invariant part of issuability: alive, not at
     *  the barrier, and no scoreboard hazard at its current PC. Combined
     *  with the CTA's Active state this is the ready-set membership
     *  rule; readyAt and the structural ports stay issue-time checks. */
    bool warpReadyMember(const VirtualCta &cta,
                         const WarpContext &warp) const
    {
        if (warp.done() || warp.atBarrier())
            return false;
        // With nothing in flight there is no hazard and the EXIT drain
        // rule is vacuous: skip the decode entirely (the common case on
        // the refresh-after-writeback path).
        if (warp.scoreboard().pendingCount() == 0)
            return true;
        const Instruction &inst = kernelOf(cta)->at(warp.stack().pc());
        if (inst.isExit())
            return false;
        return !warp.scoreboard().hasHazard(inst);
    }

    /** Kernel / launch shape of the grid a CTA belongs to. */
    const Kernel *kernelOf(const VirtualCta &cta) const
    { return grids_[cta.grid].kernel; }
    const LaunchParams *launchOf(const VirtualCta &cta) const
    { return grids_[cta.grid].launch; }

    /** Re-derive warp (slot, w)'s ready-set membership and insert or
     *  remove its key accordingly, keeping the CTA's listed flags and
     *  ready counters in step. Idempotent; called after every state
     *  transition that can change membership. */
    void refreshWarp(VirtualCtaId slot, std::uint32_t w);

    /** What the VT stall poll reads of @p cta, folded to the configured
     *  trigger's condition: a change is a possible flip of its answer,
     *  reported through VirtualThreadManager::onCtaStallChanged. */
    std::uint32_t stallKey(const VirtualCta &cta) const
    {
        const std::uint32_t long_stalled =
            cta.offchipWarps > cta.readyOffchip;
        if (config_.vtSwapTrigger == VtSwapTrigger::AnyWarpStalled)
            return long_stalled;
        return cta.readyMembers == 0 ? 1 + long_stalled : 0;
    }
    void noteStallKey(VirtualCtaId slot, std::uint32_t before)
    {
        if (config_.vtEnabled && stallKey(ctas_[slot]) != before)
            vt_.onCtaStallChanged(slot);
    }

    /** Rebuild every CTA's listed flags and ready counters from the
     *  ready lists (after restore). */
    void rebuildReadyCounters();
    /** Re-derive the listed warps' port classes and class counts (due
     *  after restore, once the kernels are bound again). */
    void rebuildClasses();

    /** Retire warp @p w of issuable CTA @p slot: settle the alive /
     *  barrier / off-chip counters it contributed to. */
    void retireWarpCounters(VirtualCta &cta, const WarpContext &warp);

    /** Cross-check ready sets and counters, and the VT manager's derived
     *  state, against a full scan. Runs right after the VT tick, where
     *  it also checks that every ready member has readyAt <= now. */
    void verifyReadySets() const;

    bool oracleEnabled() const
    {
#ifndef NDEBUG
        return true;
#else
        return config_.readySetOracle;
#endif
    }

    /** One co-resident grid's bindings. Pointers owned by the Gpu's
     *  launch context; stable for the run's duration. */
    struct GridBinding
    {
        const Kernel *kernel = nullptr;
        const LaunchParams *launch = nullptr;
    };

    SmId id_;
    const GpuConfig &config_;
    /** Grids of the current launch, indexed by GridId (solo: size 1). */
    std::vector<GridBinding> grids_;
    GlobalMemory *gmem_ = nullptr;

    LdstUnit ldst_;
    SharedMemoryModel shmem_;
    BarrierManager barriers_;
    VirtualThreadManager vt_;
    std::unique_ptr<CtaThrottler> throttler_;

    std::vector<VirtualCta> ctas_;
    std::vector<VirtualCtaId> freeSlots_;
    std::uint32_t residentCount_ = 0;
    std::uint64_t nextCtaAge_ = 0;

    std::vector<WarpScheduler> schedulers_;

    /** Scratch for barrier releases (avoids a vector per release). */
    std::vector<std::uint32_t> barrierScratch_;

    /**
     * Per-scheduler ready lists: readyKey()s, ascending (oldest first).
     * A warp is listed iff its CTA is valid and Active and
     * warpReadyMember() holds — maintained incrementally at every
     * membership-changing transition (issue, writeback, load return,
     * barrier arrive/release, warp retirement, VT activation/swap) and
     * consumed by the issue walk, the bubble classifier and
     * nextEventCycle's warp term. See ARCHITECTURE.md "Issue-path data
     * structures" for the invariants.
     */
    std::vector<std::vector<std::uint64_t>> ready_;
    std::vector<ClassCounts> classCount_;
    /** A barrier released during this cycle's issue stage: warps it
     *  listed have readyAt = now + 1, so later schedulers must walk. */
    bool lateReady_ = false;
    bool classesStale_ = false;
    // Per-scheduler aggregates over all valid CTAs (schedAlive_,
    // schedFrozenAlive_) and over Active CTAs only (the issuable pair) —
    // exactly what the bubble classifier needs.
    std::vector<std::uint32_t> schedAlive_;
    std::vector<std::uint32_t> schedFrozenAlive_;
    std::vector<std::uint32_t> schedIssuableBarrier_;
    std::vector<std::uint32_t> schedIssuableOffchip_;

    struct Writeback
    {
        Cycle at;
        VirtualCtaId vcta;
        std::uint32_t warpInCta;
        RegIndex reg;
        /** The image order: save() writes entries sorted by it. */
        bool operator<(const Writeback &o) const
        {
            return std::tie(at, vcta, warpInCta, reg) <
                   std::tie(o.at, o.vcta, o.warpInCta, o.reg);
        }
    };
    /**
     * ALU/SFU/shared-memory writebacks in flight, one FIFO per source.
     * Each source matures in issue order (fixed latencies; the shared
     * port only moves forward), so every FIFO is sorted by `at` and only
     * its front can be due. Same-cycle pops from different FIFOs commute:
     * each is a scoreboard release plus an idempotent refreshWarp().
     */
    std::array<std::deque<Writeback>, 3> wbFifos_;
    /** Append @p wb to FIFO @p src, inserting from the back so the FIFO
     *  stays sorted even when restore() filled it out of source order. */
    void pushWriteback(std::size_t src, const Writeback &wb);
    /** Earliest pending writeback (neverCycle when none). */
    Cycle nextWriteback() const;

    Cycle now_ = 0;
    Cycle lastBusy_ = neverCycle;
    std::uint32_t maxSimtDepth_ = 0;

    // Lazy-tick state: while now < ffHorizon_ and no external event
    // arrives, tick() only counts the cycle; the bookkeeping is applied
    // in bulk when the window closes.
    Cycle ffHorizon_ = 0;
    Cycle ffWindowStart_ = 0;
    std::uint64_t ffPending_ = 0;

    StatGroup stats_;
    Counter instructionsIssued_;
    Counter threadInstructions_;
    Counter ctasCompleted_;
    /** Per-grid splits of the three counters above (concurrent
     *  launches); the aggregates keep counting everything, so solo
     *  stats are untouched. */
    std::array<Counter, maxGrids> gridInstructions_;
    std::array<Counter, maxGrids> gridThreadInstructions_;
    std::array<Counter, maxGrids> gridCtasCompleted_;
    StallBreakdown stalls_;
    telemetry::TraceJsonWriter *traceJson_ = nullptr;

    bool epochLogging_ = false;
    std::vector<EpochMemOp> epochMemLog_;
    std::thread::id epochOwner_{};

    /** Record-mode sink (not machine state, never checkpointed). */
    MtraceWriter *mtrace_ = nullptr;
    /** Replay mode: drive the LDST unit from a trace slice instead of
     *  executing warps. The cursor and base are machine state (saved in
     *  "smcr"); the slice pointer is rebound on restore. */
    bool replayMode_ = false;
    const std::vector<MtraceAccess> *replay_ = nullptr;
    std::uint64_t replayCursor_ = 0;
    Cycle replayBase_ = 0;

    /** Reusable ExecResult the micro-op interpreter fills per issue, so
     *  the hot loop never allocates access vectors. Plain scratch: not
     *  machine state, never checkpointed. */
    ExecResult execScratch_;
};

} // namespace vtsim

#endif // VTSIM_SM_SM_CORE_HH
