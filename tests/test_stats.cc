/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>

#include "stats/stats.hh"

namespace vtsim {
namespace {

TEST(Counter, StartsAtZeroAndCounts)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c++;
    c += 5;
    EXPECT_EQ(c.value(), 7u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ScalarStat, EmptyIsZero)
{
    ScalarStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.minValue(), 0.0);
    EXPECT_DOUBLE_EQ(s.maxValue(), 0.0);
}

TEST(ScalarStat, TracksMinMaxMean)
{
    ScalarStat s;
    s.sample(4.0);
    s.sample(-2.0);
    s.sample(10.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.sum(), 12.0);
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.minValue(), -2.0);
    EXPECT_DOUBLE_EQ(s.maxValue(), 10.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(ScalarStat, SampleNMatchesRepeatedSamples)
{
    // sampleN takes v * n when that is exact (whole numbers within 2^53)
    // and repeated addition otherwise; either way the result must be
    // bit-identical to n calls of sample(v).
    constexpr double two53 = 9007199254740992.0;
    struct Case
    {
        double start; ///< Sum before the bulk samples.
        double v;
        std::uint64_t n;
    };
    const Case cases[] = {
        {0.0, 3.0, 1000},         // whole: the O(1) path
        {-5.0, -7.0, 333},        // negative whole values
        {0.0, 0.1, 1000},         // fractional: rounding per addition
        {1.5, 2.0, 100},          // fractional sum, whole v
        {two53 - 64, 1.0, 64},    // lands exactly on 2^53
        {two53 - 64, 1.0, 65},    // one step past 2^53: loop path
        {two53 - 10, 3.0, 4},     // 3 * 4 crosses 2^53 by 2
        {two53, 0.0, 10},         // zero at the boundary
        {0.0, -0.0, 5},           // signed zero
    };
    for (const Case &c : cases) {
        ScalarStat bulk;
        ScalarStat loop;
        bulk.sample(c.start);
        loop.sample(c.start);
        bulk.sampleN(c.v, c.n);
        for (std::uint64_t i = 0; i < c.n; ++i)
            loop.sample(c.v);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(bulk.sum()),
                  std::bit_cast<std::uint64_t>(loop.sum()))
            << "start " << c.start << " v " << c.v << " n " << c.n;
        EXPECT_EQ(bulk.count(), loop.count());
        EXPECT_EQ(bulk.minValue(), loop.minValue());
        EXPECT_EQ(bulk.maxValue(), loop.maxValue());
    }
}

TEST(Histogram, BucketsAndOverflow)
{
    Histogram h(4, 10.0); // [0,10) [10,20) [20,30) [30,40)
    h.sample(0.0);
    h.sample(9.99);
    h.sample(10.0);
    h.sample(35.0);
    h.sample(40.0);  // overflow
    h.sample(-1.0);  // negative counts as overflow
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    h.reset();
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.bucket(0), 0u);
}

TEST(Histogram, PercentileReturnsUpperBucketEdge)
{
    Histogram h(4, 10.0); // [0,10) [10,20) [20,30) [30,40)
    h.sample(1.0);
    h.sample(2.0);
    h.sample(12.0);
    h.sample(33.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);  // rank 2 -> bucket 0
    EXPECT_DOUBLE_EQ(h.percentile(0.75), 20.0); // rank 3 -> bucket 1
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 40.0);  // rank 4 -> bucket 3
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);  // rank clamps to 1
}

TEST(Histogram, PercentileOverflowAndEmpty)
{
    Histogram h(2, 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0); // empty histogram
    h.sample(100.0);                          // lands in overflow
    // All mass above the last bucket: report the histogram's ceiling.
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 10.0);
}

TEST(Histogram, PercentileOfDeltaBuckets)
{
    // The interval sampler diffs raw bucket vectors between samples and
    // ranks the delta directly.
    const std::vector<std::uint64_t> buckets{0, 3, 1, 0};
    EXPECT_DOUBLE_EQ(Histogram::percentileOf(buckets, 0, 2.0, 0.5), 4.0);
    EXPECT_DOUBLE_EQ(Histogram::percentileOf(buckets, 2, 2.0, 0.95), 8.0);
    EXPECT_DOUBLE_EQ(Histogram::percentileOf({}, 0, 2.0, 0.5), 0.0);
}

TEST(Histogram, Shape)
{
    Histogram h(8, 2.5);
    EXPECT_EQ(h.bucketCount(), 8u);
    EXPECT_DOUBLE_EQ(h.bucketWidth(), 2.5);
}

TEST(StatGroup, CounterValueLookup)
{
    StatGroup g("grp");
    Counter c;
    c += 3;
    g.addCounter("events", &c, "some events");
    EXPECT_EQ(g.counterValue("events"), 3u);
    EXPECT_EQ(g.counterValue("missing"), 0u);
}

TEST(StatGroup, DumpContainsAllStats)
{
    StatGroup g("sm0");
    Counter c;
    c += 42;
    ScalarStat s;
    s.sample(2.0);
    Histogram h(2, 1.0);
    h.sample(0.5);
    g.addCounter("instr", &c, "instructions");
    g.addScalar("occ", &s, "occupancy");
    g.addHistogram("lat", &h, "latency");

    std::ostringstream os;
    g.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("sm0.instr 42"), std::string::npos);
    EXPECT_NE(out.find("sm0.occ.mean 2"), std::string::npos);
    EXPECT_NE(out.find("sm0.lat.total 1"), std::string::npos);
    EXPECT_NE(out.find("instructions"), std::string::npos);
}

TEST(StatGroup, ValueEntriesDumpLikeCounters)
{
    StatGroup g("sm0");
    std::uint64_t raw = 7;
    g.addValue("issue.issued", &raw, "issued cycles");
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("sm0.issue.issued 7"), std::string::npos);
    ASSERT_EQ(g.values().count("issue.issued"), 1u);
    EXPECT_EQ(*g.values().at("issue.issued").stat, 7u);
}

TEST(StatGroup, NameAccessor)
{
    StatGroup g("abc");
    EXPECT_EQ(g.name(), "abc");
}

} // namespace
} // namespace vtsim
