#include "reference_scheduler.hh"

#include <algorithm>

#include "common/log.hh"

namespace vtsim::test {

std::unique_ptr<ReferenceScheduler>
ReferenceScheduler::create(SchedulerPolicy policy, std::uint32_t active_set)
{
    switch (policy) {
      case SchedulerPolicy::LooseRoundRobin:
        return std::make_unique<LrrScheduler>();
      case SchedulerPolicy::GreedyThenOldest:
        return std::make_unique<GtoScheduler>();
      case SchedulerPolicy::TwoLevel:
        return std::make_unique<TwoLevelScheduler>(active_set);
    }
    VTSIM_PANIC("unknown scheduler policy");
}

std::size_t
LrrScheduler::pick(const std::vector<WarpCandidate> &candidates)
{
    VTSIM_ASSERT(!candidates.empty(), "pick() with no candidates");
    // First candidate whose key strictly follows the last issued key in
    // circular order; falls back to the smallest key.
    std::size_t best = candidates.size();
    std::size_t smallest = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].key < candidates[smallest].key)
            smallest = i;
        if (candidates[i].key > lastKey_ &&
            (best == candidates.size() ||
             candidates[i].key < candidates[best].key)) {
            best = i;
        }
    }
    const std::size_t chosen = best != candidates.size() ? best : smallest;
    lastKey_ = candidates[chosen].key;
    return chosen;
}

std::size_t
GtoScheduler::pick(const std::vector<WarpCandidate> &candidates)
{
    VTSIM_ASSERT(!candidates.empty(), "pick() with no candidates");
    std::size_t oldest = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].key == greedyKey_) {
            return i; // Stay greedy.
        }
        if (candidates[i].age < candidates[oldest].age)
            oldest = i;
    }
    greedyKey_ = candidates[oldest].key;
    return oldest;
}

std::size_t
TwoLevelScheduler::pick(const std::vector<WarpCandidate> &candidates)
{
    VTSIM_ASSERT(!candidates.empty(), "pick() with no candidates");

    // Prefer ready members of the active set, LRR among them.
    std::size_t best = candidates.size();
    std::size_t smallest = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (!activeSet_.count(candidates[i].key))
            continue;
        if (smallest == candidates.size() ||
            candidates[i].key < candidates[smallest].key) {
            smallest = i;
        }
        if (candidates[i].key > lastKey_ &&
            (best == candidates.size() ||
             candidates[i].key < candidates[best].key)) {
            best = i;
        }
    }
    if (smallest != candidates.size()) {
        const std::size_t chosen =
            best != candidates.size() ? best : smallest;
        lastKey_ = candidates[chosen].key;
        return chosen;
    }

    // Nothing in the active set is ready: promote the oldest pending warp
    // (evicting an arbitrary stale member when full) and issue it.
    std::size_t oldest = 0;
    for (std::size_t i = 1; i < candidates.size(); ++i)
        if (candidates[i].age < candidates[oldest].age)
            oldest = i;
    if (activeSet_.size() >= activeSetSize_)
        activeSet_.erase(activeSet_.begin());
    activeSet_.insert(candidates[oldest].key);
    lastKey_ = candidates[oldest].key;
    return oldest;
}

} // namespace vtsim::test
