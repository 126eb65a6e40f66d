/**
 * @file
 * vtbench's measurement toolkit, kept apart from the workload code so
 * its own tests (test_bench_lib.cc) can pin it down: order statistics
 * that refuse thin tails, seeded schedules, an in-memory span recorder
 * with self-time accounting, expected-stats digests keyed by spec, and
 * the VT-speedup error against the paper.
 */

#ifndef VTBENCH_BENCH_LIB_HH
#define VTBENCH_BENCH_LIB_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "gpu/gpu.hh"

namespace vtbench {

/** Seconds on the monotonic clock: the one clock every timing uses. */
double steadySeconds();

// --------------------------------------------------------------------
// Host-speed gauge
// --------------------------------------------------------------------

/**
 * A fixed piece of host work whose time tracks how fast the shared host
 * runs the simulator at the moment: random read-modify-writes with
 * data-dependent branches over a 256 KiB table. Other tenants' use of
 * the core and its caches slows it and the simulator together, the
 * simulator more (NOTES.md, "Host-speed gauge"). The gated host timings
 * are multiplied by speed(), so they read as on a host where one chunk
 * takes kNominalChunkSeconds.
 */
class HostGauge
{
  public:
    static constexpr double kNominalChunkSeconds = 1e-3;
    /** How much harder the simulator slows than the gauge: its time
     *  grows as the chunk time to this power (measured in NOTES.md). */
    static constexpr double kElasticity = 1.5;

    HostGauge();

    /** Run one chunk; returns its wall seconds. */
    double chunk();

    /** The host's speed for the simulator while a chunk took
     *  @p chunk_seconds. */
    static double
    speed(double chunk_seconds)
    {
        return std::pow(kNominalChunkSeconds / chunk_seconds, kElasticity);
    }

    /** Every chunk's time so far, in seconds. */
    const std::vector<double> &chunks() const { return chunks_; }

  private:
    std::vector<std::uint64_t> table_;
    std::uint64_t state_ = 88172645463325252ull;
    std::uint64_t sink_ = 0;
    std::vector<double> chunks_;
};

// --------------------------------------------------------------------
// Order statistics
// --------------------------------------------------------------------

/** Quantile @p q in [0, 1] by linear interpolation between order
 *  statistics (the "inclusive" definition). Throws on empty input. */
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

struct Percentile
{
    double value = 0.0;
    /** Samples strictly above value. */
    std::size_t beyond = 0;
    std::size_t samples = 0;
};

/**
 * Percentile @p q of @p samples, or nothing when fewer than
 * @p min_beyond samples lie beyond it: a tail that thin is one or two
 * unlucky runs, not a percentile.
 */
std::optional<Percentile> tailPercentile(std::vector<double> samples,
                                         double q,
                                         std::size_t min_beyond = 10);

// --------------------------------------------------------------------
// Seeded schedules
// --------------------------------------------------------------------

/** Fisher-Yates permutation of 0..n-1 for (@p seed, @p stream), drawn
 *  from splitmix64 so a seed means the same order on every standard
 *  library. */
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed,
                                     std::uint64_t stream = 0);

/** One simulation a workload runs or a client submits. */
struct RunSpec
{
    std::string kernel;
    std::string machine; ///< "base" (fermiLike) or "vt".
    std::uint32_t scale = 1;

    bool operator==(const RunSpec &) const = default;
};

/**
 * One client's share of a service round: a low-priority job submitted
 * first, then high-priority jobs submitted and awaited one at a time,
 * then the low-priority result.
 */
struct Episode
{
    RunSpec low;
    std::vector<RunSpec> high;

    bool operator==(const Episode &) const = default;
};

/**
 * Round @p round of the service workload for @p clients clients: every
 * spec of @p low and @p high exactly once, in seed-drawn order, dealt
 * into episodes of one low job plus high.size()/low.size() high jobs,
 * episodes alternating between clients. low.size() must be a multiple
 * of @p clients and divide high.size().
 */
std::vector<std::vector<Episode>>
serviceRound(const std::vector<RunSpec> &low,
             const std::vector<RunSpec> &high, unsigned clients,
             std::uint64_t seed, std::uint64_t round);

// --------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------

struct Span
{
    std::string name;
    double start = 0.0; ///< Seconds on the recorder's clock.
    double end = 0.0;
    std::int64_t parent = -1; ///< Index into spans(), -1 for a root.
    std::uint64_t run = 0;    ///< Rounds and set-ups share run ids.
};

/**
 * In-memory span recorder: keeps every span until write(). Code that
 * records spans takes a SpanRecorder pointer, null when tracing is off.
 * begin/end/add may be called from several threads; read spans() and
 * the self times once they have joined.
 */
class SpanRecorder
{
  public:
    SpanRecorder();
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Open a span now; returns its id. */
    std::int64_t begin(const std::string &name, std::uint64_t run,
                       std::int64_t parent = -1);
    void end(std::int64_t id);

    /** Record a span with explicit times (tests, imported timings). */
    std::int64_t add(const std::string &name, double start, double end,
                     std::int64_t parent, std::uint64_t run);

    /** Seconds since the recorder was made. */
    double now() const;

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed self time per span name over spans whose run is in
     *  @p runs (all runs when empty). A span's self time is its length
     *  minus the union of its children, each clipped to the span. */
    std::map<std::string, double>
    selfTimeByName(const std::vector<std::uint64_t> &runs = {}) const;

    /** One JSON object per span, one per line. */
    void write(std::ostream &os) const;

  private:
    /** Self time of every span, by index. */
    std::vector<double> selfTimes() const;

    double origin_;
    std::mutex mu_; ///< Guards spans_ while threads record.
    std::vector<Span> spans_;
};

/** Scoped begin/end on a recorder; records nothing when @p rec is null
 *  (id() is then -1). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name,
               std::uint64_t run, std::int64_t parent = -1)
        : rec_(rec), id_(rec ? rec->begin(name, run, parent) : -1)
    {}
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }

  private:
    SpanRecorder *rec_;
    std::int64_t id_;
};

// --------------------------------------------------------------------
// Expected-stats digests
// --------------------------------------------------------------------

/** What a digest is keyed by: the run spec plus its sim mode ("exec"
 *  for execution-driven runs at any shard count, "replay" for trace
 *  replay). */
struct DigestKey
{
    RunSpec spec;
    std::string mode = "exec";

    std::string str() const;
};

/** FNV-1a over the key and every integer KernelStats field: equal
 *  stats under another key give another digest. */
std::uint64_t statsDigest(const DigestKey &key,
                          const vtsim::KernelStats &stats);

/** As statsDigest over the cache and DRAM counters only, keyed by the
 *  spec without its mode, so a replay compares against the execution
 *  run it was recorded from. */
std::uint64_t memDigest(const RunSpec &spec,
                        const vtsim::KernelStats &stats);

class DigestStore
{
  public:
    /** Load @p path; throws std::runtime_error on a malformed line. */
    void load(const std::string &path);
    void save(const std::string &path) const;

    void bless(const DigestKey &key, const vtsim::KernelStats &stats);
    bool contains(const DigestKey &key) const
    { return entries_.count(key.str()) != 0; }

    /**
     * True when @p stats match the entry for @p key; a replay must also
     * match its execution entry's cache/DRAM counters. A missing entry
     * is a mismatch. @p why says what differed.
     */
    bool check(const DigestKey &key, const vtsim::KernelStats &stats,
               std::string *why = nullptr) const;

    std::size_t size() const { return entries_.size(); }

  private:
    struct Entry
    {
        std::uint64_t digest = 0;
        std::uint64_t mem = 0;
        std::uint64_t cycles = 0;
    };

    std::map<std::string, Entry> entries_;
};

// --------------------------------------------------------------------
// VT speedup against the paper
// --------------------------------------------------------------------

/** The paper's average IPC gain from VT (+23.9%). */
inline constexpr double kPaperVtSpeedup = 1.239;

struct CycleResult
{
    /** What pairs a baseline run with its VT run (kernel and scale). */
    std::string label;
    bool vt = false;
    std::uint64_t cycles = 0;
};

/** Geometric mean over labels of baseline cycles / VT cycles. Throws
 *  unless every label has exactly one baseline and one VT result. */
double vtSpeedupGeomean(const std::vector<CycleResult> &results);

/** |geomean - 1.239| / 1.239: the distance of this unvalidated model
 *  from the paper's headline. */
double vtSpeedupErr(const std::vector<CycleResult> &results);

} // namespace vtbench

#endif // VTBENCH_BENCH_LIB_HH
