#include "bench_lib.hh"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace vtbench {

double
steadySeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --------------------------------------------------------------------
// Host-speed gauge
// --------------------------------------------------------------------

HostGauge::HostGauge() : table_(std::size_t(1) << 15, 1) {}

double
HostGauge::chunk()
{
    const double t0 = steadySeconds();
    std::uint64_t x = state_, acc = sink_;
    const std::size_t mask = table_.size() - 1;
    for (int i = 0; i < 120'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::uint64_t &v = table_[x & mask];
        if ((x >> 40) & 1)
            v += acc;
        else
            acc += v;
    }
    state_ = x;
    sink_ = acc;
    const double t = steadySeconds() - t0;
    chunks_.push_back(t);
    return t;
}

// --------------------------------------------------------------------
// Order statistics
// --------------------------------------------------------------------

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        throw std::invalid_argument("quantile of no samples");
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const auto lo = std::size_t(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

std::optional<Percentile>
tailPercentile(std::vector<double> samples, double q,
               std::size_t min_beyond)
{
    if (samples.empty())
        return std::nullopt;
    Percentile p;
    p.samples = samples.size();
    p.value = quantile(samples, q);
    p.beyond = std::size_t(std::count_if(
        samples.begin(), samples.end(),
        [&p](double v) { return v > p.value; }));
    if (p.beyond < min_beyond)
        return std::nullopt;
    return p;
}

// --------------------------------------------------------------------
// Seeded schedules
// --------------------------------------------------------------------

namespace {

/** splitmix64: a fixed generator, unlike the standard distributions. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    std::uint64_t
    below(std::uint64_t n)
    {
        return std::uint64_t((unsigned __int128)next() * n >> 64);
    }

  private:
    std::uint64_t state_;
};

} // namespace

std::vector<std::size_t>
permutation(std::size_t n, std::uint64_t seed, std::uint64_t stream)
{
    SplitMix64 rng(seed ^ (0xD1B54A32D192ED03ull * (stream + 1)));
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.below(i)]);
    return order;
}

std::vector<std::vector<Episode>>
serviceRound(const std::vector<RunSpec> &low,
             const std::vector<RunSpec> &high, unsigned clients,
             std::uint64_t seed, std::uint64_t round)
{
    if (clients == 0 || low.empty() || low.size() % clients != 0 ||
        high.size() % low.size() != 0)
        throw std::invalid_argument("serviceRound: uneven job mix");
    const std::size_t per_episode = high.size() / low.size();
    const auto low_order = permutation(low.size(), seed, 2 * round);
    const auto high_order = permutation(high.size(), seed, 2 * round + 1);
    std::vector<std::vector<Episode>> out(clients);
    for (std::size_t e = 0; e < low.size(); ++e) {
        Episode ep;
        ep.low = low[low_order[e]];
        for (std::size_t h = 0; h < per_episode; ++h)
            ep.high.push_back(high[high_order[e * per_episode + h]]);
        out[e % clients].push_back(std::move(ep));
    }
    return out;
}

// --------------------------------------------------------------------
// Spans
// --------------------------------------------------------------------

SpanRecorder::SpanRecorder() : origin_(steadySeconds()) {}

double
SpanRecorder::now() const
{
    return steadySeconds() - origin_;
}

std::int64_t
SpanRecorder::begin(const std::string &name, std::uint64_t run,
                    std::int64_t parent)
{
    const double t = now();
    return add(name, t, t, parent, run);
}

void
SpanRecorder::end(std::int64_t id)
{
    if (id < 0)
        return;
    const double t = now();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[std::size_t(id)].end = t;
}

std::int64_t
SpanRecorder::add(const std::string &name, double start, double end,
                  std::int64_t parent, std::uint64_t run)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, start, end, parent, run});
    return std::int64_t(spans_.size() - 1);
}

namespace {

/** Length of the union of @p ivs, each clipped to [lo, hi]. */
double
clippedUnion(std::vector<std::pair<double, double>> ivs, double lo,
             double hi)
{
    for (auto &iv : ivs) {
        iv.first = std::max(iv.first, lo);
        iv.second = std::min(iv.second, hi);
    }
    std::sort(ivs.begin(), ivs.end());
    double covered = 0.0;
    double cur_start = 0.0;
    double cur_end = -1.0;
    bool open = false;
    for (const auto &[s, e] : ivs) {
        if (e <= s)
            continue;
        if (open && s <= cur_end) {
            cur_end = std::max(cur_end, e);
            continue;
        }
        if (open)
            covered += cur_end - cur_start;
        cur_start = s;
        cur_end = e;
        open = true;
    }
    if (open)
        covered += cur_end - cur_start;
    return covered;
}

} // namespace

std::vector<double>
SpanRecorder::selfTimes() const
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            children[std::size_t(s.parent)].emplace_back(s.start, s.end);
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out.push_back((s.end - s.start) -
                      clippedUnion(std::move(children[i]), s.start, s.end));
    }
    return out;
}

std::map<std::string, double>
SpanRecorder::selfTimeByName(const std::vector<std::uint64_t> &runs) const
{
    const std::vector<double> self = selfTimes();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        if (runs.empty() ||
            std::find(runs.begin(), runs.end(), s.run) != runs.end())
            out[s.name] += self[i];
    }
    return out;
}

void
SpanRecorder::write(std::ostream &os) const
{
    const std::vector<double> self = selfTimes();
    char buf[96];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::snprintf(buf, sizeof buf,
                      "\"start\":%.9f,\"end\":%.9f,\"self\":%.9f",
                      s.start, s.end, self[i]);
        os << "{\"id\":" << i << ",\"name\":\"" << s.name << "\","
           << buf << ",\"parent\":" << s.parent << ",\"run\":" << s.run
           << "}\n";
    }
}

// --------------------------------------------------------------------
// Expected-stats digests
// --------------------------------------------------------------------

std::string
DigestKey::str() const
{
    return spec.kernel + " " + spec.machine + " " +
           std::to_string(spec.scale) + " " + mode;
}

namespace {

class Fnv1a
{
  public:
    void
    bytes(const std::string &s)
    {
        for (unsigned char c : s)
            byte(c);
        byte(0);
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(std::uint8_t(v >> (8 * i)));
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    byte(std::uint8_t b)
    {
        h_ = (h_ ^ b) * 0x100000001B3ull;
    }

    std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void
hashMemCounters(Fnv1a &h, const vtsim::KernelStats &s)
{
    for (std::uint64_t v : {s.l1Hits, s.l1Misses, s.l2Hits, s.l2Misses,
                            s.dramRowHits, s.dramRowMisses, s.dramBytes})
        h.u64(v);
}

} // namespace

std::uint64_t
statsDigest(const DigestKey &key, const vtsim::KernelStats &s)
{
    Fnv1a h;
    h.bytes(key.str());
    for (std::uint64_t v :
         {std::uint64_t(s.cycles), s.warpInstructions,
          s.threadInstructions, s.ctasCompleted, s.swapOuts, s.swapIns,
          s.stalls.issued, s.stalls.memStall, s.stalls.shortStall,
          s.stalls.barrierStall, s.stalls.swapStall, s.stalls.idle})
        h.u64(v);
    hashMemCounters(h, s);
    return h.value();
}

std::uint64_t
memDigest(const RunSpec &spec, const vtsim::KernelStats &s)
{
    Fnv1a h;
    h.bytes(DigestKey{spec, ""}.str());
    hashMemCounters(h, s);
    return h.value();
}

void
DigestStore::load(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        throw std::runtime_error("cannot read digests '" + path + "'");
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        DigestKey key;
        std::string digest, mem;
        Entry e;
        if (!(fields >> key.spec.kernel >> key.spec.machine >>
              key.spec.scale >> key.mode >> digest >> mem >> e.cycles))
            throw std::runtime_error(path + ":" + std::to_string(lineno) +
                                     ": malformed digest line");
        e.digest = std::stoull(digest, nullptr, 16);
        e.mem = std::stoull(mem, nullptr, 16);
        entries_[key.str()] = e;
    }
}

void
DigestStore::save(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        throw std::runtime_error("cannot write digests '" + path + "'");
    os << "# vtbench expected KernelStats digests.\n"
          "# kernel machine scale mode stats-digest mem-digest cycles\n"
          "# Regenerate only with: python3 vtbench/run.py --bless\n";
    char buf[64];
    for (const auto &[key, e] : entries_) {
        std::snprintf(buf, sizeof buf, "%016" PRIx64 " %016" PRIx64,
                      e.digest, e.mem);
        os << key << ' ' << buf << ' ' << e.cycles << '\n';
    }
    if (!os)
        throw std::runtime_error("short write to '" + path + "'");
}

void
DigestStore::bless(const DigestKey &key, const vtsim::KernelStats &stats)
{
    entries_[key.str()] = {statsDigest(key, stats),
                           memDigest(key.spec, stats), stats.cycles};
}

bool
DigestStore::check(const DigestKey &key, const vtsim::KernelStats &stats,
                   std::string *why) const
{
    const auto fail = [&](const std::string &msg) {
        if (why)
            *why = key.str() + ": " + msg;
        return false;
    };
    const auto it = entries_.find(key.str());
    if (it == entries_.end())
        return fail("no expected digest");
    if (it->second.digest != statsDigest(key, stats))
        return fail("stats differ (cycles " +
                    std::to_string(stats.cycles) + ", expected " +
                    std::to_string(it->second.cycles) + ")");
    if (key.mode != "exec") {
        const auto exec = entries_.find(DigestKey{key.spec, "exec"}.str());
        if (exec == entries_.end())
            return fail("no execution digest to compare counters with");
        if (exec->second.mem != memDigest(key.spec, stats))
            return fail("cache/DRAM counters differ from execution");
    }
    return true;
}

// --------------------------------------------------------------------
// VT speedup against the paper
// --------------------------------------------------------------------

double
vtSpeedupGeomean(const std::vector<CycleResult> &results)
{
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> pairs;
    for (const CycleResult &r : results) {
        if (r.cycles == 0)
            throw std::invalid_argument(r.label + ": zero cycles");
        auto &slot = r.vt ? pairs[r.label].second : pairs[r.label].first;
        if (slot != 0)
            throw std::invalid_argument(r.label + ": duplicate result");
        slot = r.cycles;
    }
    if (pairs.empty())
        throw std::invalid_argument("no results to pair");
    double log_sum = 0.0;
    for (const auto &[label, p] : pairs) {
        if (p.first == 0 || p.second == 0)
            throw std::invalid_argument(label + ": unpaired result");
        log_sum += std::log(double(p.first) / double(p.second));
    }
    return std::exp(log_sum / double(pairs.size()));
}

double
vtSpeedupErr(const std::vector<CycleResult> &results)
{
    return std::fabs(vtSpeedupGeomean(results) - kPaperVtSpeedup) /
           kPaperVtSpeedup;
}

} // namespace vtbench
