/**
 * @file
 * Reference warp schedulers: the "collect every issuable warp, then
 * pick" form of the LRR, GTO and two-level policies that the SM used
 * before its issue stage became an early-exit walk of priority-ordered
 * ready lists (sm/warp_scheduler.hh). Test-only: test_scheduler.cc
 * drives both side by side and requires the same pick and the same
 * scheduler state (checkpoint bytes) at every step.
 */

#ifndef VTSIM_TESTS_REFERENCE_SCHEDULER_HH
#define VTSIM_TESTS_REFERENCE_SCHEDULER_HH

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "config/gpu_config.hh"
#include "sim/sim_component.hh"

namespace vtsim::test {

/**
 * A schedulable warp as the policy sees it. The key is unique and stable
 * for the lifetime of the warp's CTA residency; age orders warps oldest
 * first (CTA admission order, then warp index).
 */
struct WarpCandidate
{
    std::uint64_t key;  ///< Stable identity.
    std::uint64_t age;  ///< Lower = older.
};

class ReferenceScheduler : public SimComponent
{
  public:
    /**
     * Choose among @p candidates (nonempty, deterministic order).
     * @return Index into @p candidates.
     *
     * The chosen *candidate* depends only on the multiset of (key, age)
     * pairs, never on positional order (keys are unique, comparisons
     * are total).
     */
    virtual std::size_t pick(const std::vector<WarpCandidate> &candidates)
        = 0;

    /** Factory for the configured policy. */
    static std::unique_ptr<ReferenceScheduler>
    create(SchedulerPolicy policy, std::uint32_t active_set);
};

/** Loose round-robin: rotate fairly through issuable warps. */
class LrrScheduler : public ReferenceScheduler
{
  public:
    std::size_t pick(const std::vector<WarpCandidate> &candidates) override;

    void reset() override { lastKey_ = 0; }

    void
    save(Serializer &ser) const override
    {
        const std::size_t sec = ser.beginSection("wlrr");
        ser.put(lastKey_);
        ser.endSection(sec);
    }

    void
    restore(Deserializer &des) override
    {
        des.beginSection("wlrr");
        des.get(lastKey_);
        des.endSection();
    }

  private:
    std::uint64_t lastKey_ = 0;
};

/** Greedy-then-oldest: stay on the same warp until it stalls, then take
 *  the oldest ready warp. */
class GtoScheduler : public ReferenceScheduler
{
  public:
    std::size_t pick(const std::vector<WarpCandidate> &candidates) override;

    void reset() override { greedyKey_ = ~0ull; }

    void
    save(Serializer &ser) const override
    {
        const std::size_t sec = ser.beginSection("wgto");
        ser.put(greedyKey_);
        ser.endSection(sec);
    }

    void
    restore(Deserializer &des) override
    {
        des.beginSection("wgto");
        des.get(greedyKey_);
        des.endSection();
    }

  private:
    std::uint64_t greedyKey_ = ~0ull;
};

/** Two-level: a small active set scheduled LRR; stalled members are
 *  replaced from the pending pool oldest-first. */
class TwoLevelScheduler : public ReferenceScheduler
{
  public:
    explicit TwoLevelScheduler(std::uint32_t active_set_size)
        : activeSetSize_(active_set_size ? active_set_size : 1)
    {}

    std::size_t pick(const std::vector<WarpCandidate> &candidates) override;

    void
    reset() override
    {
        activeSet_.clear();
        lastKey_ = 0;
    }

    void
    save(Serializer &ser) const override
    {
        const std::size_t sec = ser.beginSection("w2lv");
        // std::set iterates sorted, so the stream is deterministic.
        std::vector<std::uint64_t> members(activeSet_.begin(),
                                           activeSet_.end());
        ser.putVec(members);
        ser.put(lastKey_);
        ser.endSection(sec);
    }

    void
    restore(Deserializer &des) override
    {
        des.beginSection("w2lv");
        std::vector<std::uint64_t> members;
        des.getVec(members);
        activeSet_.clear();
        activeSet_.insert(members.begin(), members.end());
        des.get(lastKey_);
        des.endSection();
    }

  private:
    std::uint32_t activeSetSize_;
    std::set<std::uint64_t> activeSet_;
    std::uint64_t lastKey_ = 0;
};

} // namespace vtsim::test

#endif // VTSIM_TESTS_REFERENCE_SCHEDULER_HH
