#include "stats/stats.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>

#include "common/log.hh"

namespace vtsim {

void
ScalarStat::sample(double v)
{
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

void
ScalarStat::sampleN(double v, std::uint64_t n)
{
    if (n == 0)
        return;
    if (count_ == 0) {
        min_ = v;
        max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    count_ += n;
    // v * n equals n repeated additions when v and every partial sum are
    // whole numbers of magnitude at most 2^53: each addition is exact.
    constexpr double exact = 9007199254740992.0; // 2^53
    const double av = std::fabs(v);
    const double as = std::fabs(sum_);
    if (av <= exact && as <= exact && v == std::trunc(v) &&
        sum_ == std::trunc(sum_)) {
        const auto a = static_cast<std::uint64_t>(av);
        if (a == 0 || n <= (static_cast<std::uint64_t>(exact) -
                            static_cast<std::uint64_t>(as)) / a) {
            sum_ += v * static_cast<double>(n);
            return;
        }
    }
    // Otherwise keep the rounding sequence of the per-cycle loop.
    for (std::uint64_t i = 0; i < n; ++i)
        sum_ += v;
}

void
ScalarStat::reset()
{
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

Histogram::Histogram(std::uint32_t bucket_count, double bucket_width)
    : buckets_(bucket_count, 0), bucketWidth_(bucket_width)
{
    VTSIM_ASSERT(bucket_count > 0 && bucket_width > 0,
                 "degenerate histogram shape");
}

void
Histogram::sample(double v)
{
    ++total_;
    if (v < 0) {
        ++overflow_;
        return;
    }
    const auto idx = static_cast<std::uint64_t>(v / bucketWidth_);
    if (idx >= buckets_.size())
        ++overflow_;
    else
        ++buckets_[idx];
}

double
Histogram::percentileOf(const std::vector<std::uint64_t> &buckets,
                        std::uint64_t overflow, double bucket_width,
                        double p)
{
    std::uint64_t total = overflow;
    for (auto b : buckets)
        total += b;
    if (total == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    // Rank of the sample we are looking for, 1-based: the smallest rank
    // such that at least p * total samples are at or below it.
    auto rank = static_cast<std::uint64_t>(std::ceil(p * total));
    if (rank == 0)
        rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= rank)
            return (i + 1) * bucket_width;
    }
    // Rank falls in the overflow region; report the range's upper edge.
    return buckets.size() * bucket_width;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    total_ = 0;
}

void
StatGroup::addCounter(const std::string &name, const Counter *c,
                      const std::string &desc)
{
    counters_[name] = {c, desc};
}

void
StatGroup::addValue(const std::string &name, const std::uint64_t *v,
                    const std::string &desc)
{
    values_[name] = {v, desc};
}

void
StatGroup::addScalar(const std::string &name, const ScalarStat *s,
                     const std::string &desc)
{
    scalars_[name] = {s, desc};
}

void
StatGroup::addHistogram(const std::string &name, const Histogram *h,
                        const std::string &desc)
{
    histograms_[name] = {h, desc};
}

std::uint64_t
StatGroup::counterValue(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.stat->value();
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &[name, entry] : counters_) {
        os << name_ << '.' << name << ' ' << entry.stat->value()
           << "  # " << entry.desc << '\n';
    }
    for (const auto &[name, entry] : values_) {
        os << name_ << '.' << name << ' ' << *entry.stat
           << "  # " << entry.desc << '\n';
    }
    for (const auto &[name, entry] : scalars_) {
        os << name_ << '.' << name << ".mean " << std::setprecision(6)
           << entry.stat->mean() << "  # " << entry.desc << '\n';
    }
    for (const auto &[name, entry] : histograms_) {
        os << name_ << '.' << name << ".total " << entry.stat->total()
           << "  # " << entry.desc << '\n';
    }
}

} // namespace vtsim
