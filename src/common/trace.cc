#include "common/trace.hh"

#include <sstream>

#include "common/log.hh"

namespace vtsim {

constinit Trace Trace::sink_;

void
Trace::enable(TraceFlag flags, std::ostream *os)
{
    mask_ = static_cast<std::uint32_t>(flags);
    out_ = os;
}

void
Trace::log(TraceFlag flag, Cycle cycle, const std::string &component,
           const std::string &message)
{
    if (!enabled(flag))
        return;
    (*out_) << cycle << ": " << component << ": " << message << '\n';
}

TraceFlag
Trace::parseFlags(const std::string &list)
{
    TraceFlag flags = TraceFlag::None;
    std::istringstream in(list);
    std::string name;
    while (std::getline(in, name, ',')) {
        if (name == "issue")
            flags = flags | TraceFlag::Issue;
        else if (name == "mem")
            flags = flags | TraceFlag::Mem;
        else if (name == "swap")
            flags = flags | TraceFlag::Swap;
        else if (name == "cta")
            flags = flags | TraceFlag::Cta;
        else if (name == "dram")
            flags = flags | TraceFlag::Dram;
        else if (name == "barrier")
            flags = flags | TraceFlag::Barrier;
        else if (name == "all")
            flags = flags | TraceFlag::All;
        else if (!name.empty())
            VTSIM_FATAL("unknown trace flag '", name, "'");
    }
    return flags;
}

} // namespace vtsim
