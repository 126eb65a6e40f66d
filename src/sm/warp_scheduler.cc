#include "sm/warp_scheduler.hh"

#include "sim/serializer.hh"

namespace vtsim {

void
WarpScheduler::reset()
{
    greedyKey_ = ~0ull;
    lastKey_ = 0;
    activeSet_.clear();
}

void
WarpScheduler::save(Serializer &ser) const
{
    switch (policy_) {
      case SchedulerPolicy::GreedyThenOldest: {
        const std::size_t sec = ser.beginSection("wgto");
        ser.put(greedyKey_);
        ser.endSection(sec);
        break;
      }
      case SchedulerPolicy::LooseRoundRobin: {
        const std::size_t sec = ser.beginSection("wlrr");
        ser.put(lastKey_);
        ser.endSection(sec);
        break;
      }
      case SchedulerPolicy::TwoLevel: {
        const std::size_t sec = ser.beginSection("w2lv");
        // std::set iterates sorted, so the stream is deterministic.
        ser.putVec(std::vector<std::uint64_t>(activeSet_.begin(),
                                              activeSet_.end()));
        ser.put(lastKey_);
        ser.endSection(sec);
        break;
      }
    }
}

void
WarpScheduler::restore(Deserializer &des)
{
    reset();
    switch (policy_) {
      case SchedulerPolicy::GreedyThenOldest:
        des.beginSection("wgto");
        des.get(greedyKey_);
        break;
      case SchedulerPolicy::LooseRoundRobin:
        des.beginSection("wlrr");
        des.get(lastKey_);
        break;
      case SchedulerPolicy::TwoLevel: {
        des.beginSection("w2lv");
        std::vector<std::uint64_t> members;
        des.getVec(members);
        activeSet_.insert(members.begin(), members.end());
        des.get(lastKey_);
        break;
      }
    }
    des.endSection();
}

} // namespace vtsim
