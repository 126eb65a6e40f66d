/**
 * @file
 * Warp scheduling policies (LRR, GTO, two-level) as one selection path:
 * an early-exit walk of a ready list kept in the order every policy
 * ranks warps. The scheduler holds no warp state of its own beyond the
 * rotation/greed bookkeeping.
 */

#ifndef VTSIM_SM_WARP_SCHEDULER_HH
#define VTSIM_SM_WARP_SCHEDULER_HH

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "common/types.hh"
#include "config/gpu_config.hh"
#include "sim/sim_component.hh"

namespace vtsim {

class WarpScheduler : public SimComponent
{
  public:
    /** Low bits of a ready-list entry the scheduler never reads (the SM
     *  keeps the CTA slot there). */
    static constexpr unsigned payloadBits = 24;

    /** An entry's rank, age * 256 + w: CTA admission order, then warp
     *  index; lower = older. Scheduler state is kept in these terms. */
    static std::uint64_t rank(std::uint64_t entry)
    { return entry >> payloadBits; }

    WarpScheduler(SchedulerPolicy policy, std::uint32_t active_set_size)
        : policy_(policy),
          activeSetSize_(active_set_size ? active_set_size : 1)
    {}

    /**
     * Pick the warp to issue from @p list: entries of unique rank in
     * ascending order. @p can_issue(entry) says whether that warp can
     * issue this cycle. Returns the chosen index, or list.size() when
     * no entry can issue.
     *
     * Contract: the choice and the state update depend only on the set
     * of ranks @p can_issue accepts and on the scheduler state, never on
     * payload bits or on the order of the calls. When nothing can issue,
     * @p can_issue was called exactly once per entry and the state is
     * unchanged, so a caller can gather the bubble attribution inside
     * @p can_issue. When a warp is chosen, the entries after it in the
     * policy's order are not visited.
     *
     * - GTO: the greedy warp if it can issue, else the oldest that can
     *   (which becomes greedy).
     * - LRR: the first warp ranked after the last issued one that can
     *   issue, wrapping to the oldest.
     * - Two-level: LRR among the active set; when no member can issue,
     *   the oldest warp that can joins the set (evicting its
     *   lowest-ranked member when full) and issues.
     */
    template <typename CanIssue>
    std::size_t select(const std::vector<std::uint64_t> &list,
                       CanIssue &&can_issue);

    void reset() override;
    void save(Serializer &ser) const override;
    void restore(Deserializer &des) override;

  private:
    SchedulerPolicy policy_;
    std::uint32_t activeSetSize_;
    /** GTO: rank of the greedy warp (~0 before the first issue). */
    std::uint64_t greedyKey_ = ~0ull;
    /** LRR and two-level: rank of the last issued warp. */
    std::uint64_t lastKey_ = 0;
    /** Two-level: ranks of the active set. */
    std::set<std::uint64_t> activeSet_;
};

template <typename CanIssue>
std::size_t
WarpScheduler::select(const std::vector<std::uint64_t> &list,
                      CanIssue &&can_issue)
{
    const std::size_t n = list.size();
    // Index of the first entry ranked at or above @p key.
    const auto first_at = [&list](std::uint64_t key) {
        return std::size_t(std::lower_bound(list.begin(), list.end(),
                                            key << payloadBits) -
                           list.begin());
    };
    switch (policy_) {
      case SchedulerPolicy::GreedyThenOldest: {
        std::size_t greedy = first_at(greedyKey_);
        if (greedy < n && rank(list[greedy]) == greedyKey_) {
            if (can_issue(list[greedy]))
                return greedy;
        } else {
            greedy = n;
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (i != greedy && can_issue(list[i])) {
                greedyKey_ = rank(list[i]);
                return i;
            }
        }
        return n;
      }
      case SchedulerPolicy::LooseRoundRobin: {
        const std::size_t start = first_at(lastKey_ + 1);
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t i = start + k < n ? start + k : start + k - n;
            if (can_issue(list[i])) {
                lastKey_ = rank(list[i]);
                return i;
            }
        }
        return n;
      }
      case SchedulerPolicy::TwoLevel: {
        const std::uint64_t after_last = (lastKey_ + 1) << payloadBits;
        std::size_t first_member = n;
        std::size_t first_pending = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (!can_issue(list[i]))
                continue;
            if (activeSet_.count(rank(list[i]))) {
                if (list[i] >= after_last) {
                    lastKey_ = rank(list[i]);
                    return i;
                }
                if (first_member == n)
                    first_member = i;
            } else if (first_pending == n) {
                first_pending = i;
            }
        }
        if (first_member == n) {
            if (first_pending == n)
                return n;
            if (activeSet_.size() >= activeSetSize_)
                activeSet_.erase(activeSet_.begin());
            activeSet_.insert(rank(list[first_pending]));
            first_member = first_pending;
        }
        lastKey_ = rank(list[first_member]);
        return first_member;
      }
    }
    return n;
}

} // namespace vtsim

#endif // VTSIM_SM_WARP_SCHEDULER_HH
