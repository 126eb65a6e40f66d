/**
 * @file
 * Debug tracing in the gem5 DPRINTF idiom: category-flagged, per-cycle
 * event lines, written to a caller-supplied stream, and free when
 * disabled (a single mask test guards all formatting).
 *
 * THREADING: one simulated Gpu is single-threaded, so the sink is a
 * process-global registry (as in gem5) and is deliberately
 * unsynchronized; tests swap the stream in and out around the region
 * they observe. The parallel experiment runner (bench/parallel_runner)
 * fans hermetic Gpus across a thread pool, where a shared global sink
 * would interleave lines and race — so the runner refuses to fan out
 * while any flag is enabled (anyEnabled()) and falls back to one job.
 * Telemetry sinks that must compose with the pool — the Perfetto
 * exporter in telemetry/trace_json.hh and the interval sampler — are
 * per-Gpu objects instead of going through this facade.
 */

#ifndef VTSIM_COMMON_TRACE_HH
#define VTSIM_COMMON_TRACE_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "common/log.hh"
#include "common/types.hh"

namespace vtsim {

/** Trace categories; combine with '|'. */
enum class TraceFlag : std::uint32_t
{
    None = 0,
    Issue = 1u << 0, ///< Warp instruction issue.
    Mem = 1u << 1,   ///< LDST transactions and completions.
    Swap = 1u << 2,  ///< Virtual Thread state transitions.
    Cta = 1u << 3,   ///< CTA admission/retirement.
    Dram = 1u << 4,  ///< DRAM command scheduling.
    Barrier = 1u << 5, ///< Barrier releases.
    All = 0xffffffffu,
};

constexpr TraceFlag
operator|(TraceFlag a, TraceFlag b)
{
    return static_cast<TraceFlag>(static_cast<std::uint32_t>(a) |
                                  static_cast<std::uint32_t>(b));
}

class Trace
{
  public:
    /** The process-global trace sink. Inline over a constant-initialized
     *  static object, so the disabled VTSIM_TRACE on the issue path is one
     *  load and one branch: no call and no initialization guard. */
    static Trace &instance() { return sink_; }

    /** Route events matching @p flags to @p os (null disables). */
    void enable(TraceFlag flags, std::ostream *os);

    /** Turn everything off. */
    void disable() { enable(TraceFlag::None, nullptr); }

    bool
    enabled(TraceFlag flag) const
    {
        return (mask_ & static_cast<std::uint32_t>(flag)) != 0 &&
               out_ != nullptr;
    }

    /** Any category routed anywhere? (The parallel runner's single-job
     *  guard — see the threading note in the file comment.) */
    bool anyEnabled() const { return mask_ != 0 && out_ != nullptr; }

    /** Emit one event line: "<cycle>: <component>: <message>". */
    void log(TraceFlag flag, Cycle cycle, const std::string &component,
             const std::string &message);

    /** Parse a comma-separated flag list ("issue,swap"); throws
     *  FatalError on an unknown name. "all" enables everything. */
    static TraceFlag parseFlags(const std::string &list);

  private:
    constexpr Trace() = default;

    static Trace sink_;

    std::uint32_t mask_ = 0;
    std::ostream *out_ = nullptr;
};

} // namespace vtsim

/**
 * Emit a trace event; all argument evaluation is skipped when the flag
 * is disabled.
 */
#define VTSIM_TRACE(flag, cycle, component, ...)                             \
    do {                                                                     \
        if (::vtsim::Trace::instance().enabled(flag)) {                      \
            ::vtsim::Trace::instance().log(                                  \
                flag, cycle, component,                                      \
                ::vtsim::detail::concat(__VA_ARGS__));                       \
        }                                                                    \
    } while (0)

#endif // VTSIM_COMMON_TRACE_HH
