/**
 * @file
 * Lightweight statistics registry in the spirit of gem5's Stats package.
 *
 * Components own Counter/Histogram members and register them with a
 * StatGroup so the whole tree can be dumped as text after simulation.
 */

#ifndef VTSIM_STATS_STATS_HH
#define VTSIM_STATS_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace vtsim {

/** A simple monotonically increasing event counter. */
class Counter
{
  public:
    void operator+=(std::uint64_t n) { value_ += n; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }
    /** Set the raw value — checkpoint restore only. */
    void restoreState(std::uint64_t v) { value_ = v; }

  private:
    std::uint64_t value_ = 0;
};

/** Running scalar statistic: count, sum, min, max, mean. */
class ScalarStat
{
  public:
    void sample(double v);

    /**
     * Record @p n consecutive samples of the same value @p v —
     * bit-identical to calling sample(v) @p n times, so fast-forwarded
     * simulations reproduce the naive loop's floating-point result
     * exactly. O(1) when v * n is exact (whole numbers within 2^53),
     * repeated addition otherwise.
     */
    void sampleN(double v, std::uint64_t n);
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double minValue() const { return count_ ? min_ : 0.0; }
    double maxValue() const { return count_ ? max_ : 0.0; }
    void reset();

    /** Raw accessors and setter for checkpoint save/restore. */
    double rawMin() const { return min_; }
    double rawMax() const { return max_; }
    void
    restoreState(std::uint64_t count, double sum, double min, double max)
    {
        count_ = count;
        sum_ = sum;
        min_ = min;
        max_ = max;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-bucket histogram over [0, bucketCount * bucketWidth). */
class Histogram
{
  public:
    Histogram(std::uint32_t bucket_count = 16, double bucket_width = 1.0);

    void sample(double v);
    std::uint64_t total() const { return total_; }
    std::uint64_t bucket(std::uint32_t i) const { return buckets_.at(i); }
    std::uint32_t bucketCount() const { return buckets_.size(); }
    double bucketWidth() const { return bucketWidth_; }
    /** Samples that fell outside [0, bucketCount * bucketWidth). */
    std::uint64_t overflow() const { return overflow_; }

    /**
     * Value below which fraction @p p (in [0, 1]) of the samples fall,
     * reported as the upper edge of the bucket holding that rank.
     * Samples in the overflow bucket report the histogram range's upper
     * edge; an empty histogram reports 0.
     */
    double percentile(double p) const
    { return percentileOf(buckets_, overflow_, bucketWidth_, p); }

    /**
     * percentile() over an explicit bucket array — used by the interval
     * sampler to take percentiles of per-interval bucket *deltas*
     * without materialising a Histogram.
     */
    static double percentileOf(const std::vector<std::uint64_t> &buckets,
                               std::uint64_t overflow, double bucket_width,
                               double p);

    void reset();

    /** Replace the full bucket state — checkpoint restore only. */
    void
    restoreState(const std::vector<std::uint64_t> &buckets,
                 std::uint64_t overflow, std::uint64_t total)
    {
        // Bucket geometry is config-derived, so a restore into a
        // same-config histogram must match shapes exactly.
        if (buckets.size() != buckets_.size())
            VTSIM_PANIC("histogram restore: ", buckets.size(),
                        " buckets into ", buckets_.size());
        buckets_ = buckets;
        overflow_ = overflow;
        total_ = total;
    }

  private:
    std::vector<std::uint64_t> buckets_;
    double bucketWidth_;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * Named collection of statistics owned by one component.
 *
 * Registration stores pointers; the registering component must outlive the
 * group (both normally live inside the same object).
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void addCounter(const std::string &name, const Counter *c,
                    const std::string &desc);
    /**
     * Register a raw monotonic counter that lives as a plain uint64
     * field (e.g. one leg of a breakdown struct) rather than a Counter.
     * Walked and dumped exactly like a Counter.
     */
    void addValue(const std::string &name, const std::uint64_t *v,
                  const std::string &desc);
    void addScalar(const std::string &name, const ScalarStat *s,
                   const std::string &desc);
    void addHistogram(const std::string &name, const Histogram *h,
                      const std::string &desc);

    const std::string &name() const { return name_; }

    /** Look up a registered counter value by name; 0 when unknown. */
    std::uint64_t counterValue(const std::string &name) const;

    /** Dump every registered stat, one per line, prefixed by group name. */
    void dump(std::ostream &os) const;

    struct CounterEntry { const Counter *stat; std::string desc; };
    struct ValueEntry { const std::uint64_t *stat; std::string desc; };
    struct ScalarEntry { const ScalarStat *stat; std::string desc; };
    struct HistEntry { const Histogram *stat; std::string desc; };

    // Entry walkers for the telemetry StatRegistry (telemetry/): name ->
    // entry, in the maps' (sorted) iteration order.
    const std::map<std::string, CounterEntry> &counters() const
    { return counters_; }
    const std::map<std::string, ValueEntry> &values() const
    { return values_; }
    const std::map<std::string, ScalarEntry> &scalars() const
    { return scalars_; }
    const std::map<std::string, HistEntry> &histograms() const
    { return histograms_; }

  private:
    std::string name_;
    std::map<std::string, CounterEntry> counters_;
    std::map<std::string, ValueEntry> values_;
    std::map<std::string, ScalarEntry> scalars_;
    std::map<std::string, HistEntry> histograms_;
};

} // namespace vtsim

#endif // VTSIM_STATS_STATS_HH
