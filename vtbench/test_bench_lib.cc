/**
 * @file
 * Tests of vtbench's measurement toolkit (bench_lib.hh). Build and run
 * with `python3 vtbench/run.py --self-test`.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "bench_lib.hh"

namespace vtbench {
namespace {

std::vector<double>
ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(double(i));
    return v;
}

TEST(TailPercentile, RefusesTooFewSamplesBeyond)
{
    // 50 samples leave 4 beyond the p90: too thin to report.
    EXPECT_FALSE(tailPercentile(ramp(50), 0.9).has_value());
    EXPECT_FALSE(tailPercentile({}, 0.5).has_value());
    // 101 samples leave exactly 10 beyond it.
    const auto p90 = tailPercentile(ramp(101), 0.9);
    ASSERT_TRUE(p90.has_value());
    EXPECT_DOUBLE_EQ(p90->value, 90.0);
    EXPECT_EQ(p90->beyond, 10u);
    EXPECT_EQ(p90->samples, 101u);
    // The median needs far fewer samples.
    const auto p50 = tailPercentile(ramp(21), 0.5);
    ASSERT_TRUE(p50.has_value());
    EXPECT_DOUBLE_EQ(p50->value, 10.0);
    // Ties at the percentile are not beyond it.
    std::vector<double> ties(200, 1.0);
    EXPECT_FALSE(tailPercentile(ties, 0.9).has_value());
}

TEST(Quantile, InterpolatesBetweenOrderStatistics)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
    EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(HostGauge, SpeedIsNominalOverChunkTime)
{
    HostGauge gauge;
    EXPECT_TRUE(gauge.chunks().empty());
    std::vector<double> chunks;
    for (int i = 0; i < 3; ++i)
        chunks.push_back(gauge.chunk());
    EXPECT_GT(chunks[0], 0.0);
    EXPECT_EQ(gauge.chunks(), chunks);
    EXPECT_DOUBLE_EQ(HostGauge::speed(HostGauge::kNominalChunkSeconds),
                     1.0);
    // A host that doubles the chunk slows the simulator by more.
    EXPECT_DOUBLE_EQ(
        HostGauge::speed(2.0 * HostGauge::kNominalChunkSeconds),
        std::pow(0.5, HostGauge::kElasticity));
    EXPECT_LT(HostGauge::speed(2.0 * HostGauge::kNominalChunkSeconds), 0.5);
}

TEST(SpanSelfTime, NestedAndOverlappingChildren)
{
    SpanRecorder rec;
    const auto round = rec.add("round", 0.0, 10.0, -1, 7);
    // Two overlapping children cover [1, 5]; a third is clipped to the
    // parent's end, covering [8, 10].
    const auto a = rec.add("child", 1.0, 3.0, round, 7);
    rec.add("child", 2.0, 5.0, round, 7);
    rec.add("late", 8.0, 12.0, round, 7);
    // A grandchild only reduces its own parent's self time.
    rec.add("leaf", 1.5, 2.0, a, 7);

    const auto by_name = rec.selfTimeByName();
    EXPECT_DOUBLE_EQ(by_name.at("round"), 10.0 - 4.0 - 2.0);
    EXPECT_DOUBLE_EQ(by_name.at("child"), (2.0 - 0.5) + 3.0);
    EXPECT_DOUBLE_EQ(by_name.at("late"), 4.0);
    EXPECT_DOUBLE_EQ(by_name.at("leaf"), 0.5);

    // Filtering by run id drops spans of other runs.
    rec.add("round", 20.0, 21.0, -1, 8);
    EXPECT_DOUBLE_EQ(rec.selfTimeByName({7}).at("round"), 4.0);
    EXPECT_DOUBLE_EQ(rec.selfTimeByName({8}).at("round"), 1.0);
}

TEST(SpanRecorder, NullRecorderRecordsNothing)
{
    ScopedSpan off(nullptr, "round", 0);
    EXPECT_EQ(off.id(), -1);
    SpanRecorder rec;
    {
        ScopedSpan on(&rec, "round", 0);
        EXPECT_EQ(on.id(), 0);
    }
    EXPECT_EQ(rec.spans().size(), 1u);
}

vtsim::KernelStats
sampleStats(std::uint64_t cycles)
{
    vtsim::KernelStats s;
    s.cycles = cycles;
    s.warpInstructions = 1000;
    s.l1Hits = 10;
    s.l1Misses = 5;
    s.dramBytes = 4096;
    s.stalls.memStall = 77;
    return s;
}

TEST(DigestStore, WrongSpecIsAMismatch)
{
    const vtsim::KernelStats stats = sampleStats(500);
    const DigestKey base{{"matmul", "base", 1}, "exec"};
    const DigestKey vt{{"matmul", "vt", 1}, "exec"};
    const DigestKey scale0{{"matmul", "base", 0}, "exec"};
    // Capacity-limited kernels give identical stats on both machines;
    // the key is hashed too, so the digests still differ.
    EXPECT_NE(statsDigest(base, stats), statsDigest(vt, stats));
    EXPECT_NE(statsDigest(base, stats), statsDigest(scale0, stats));

    DigestStore store;
    store.bless(base, stats);
    std::string why;
    EXPECT_TRUE(store.check(base, stats, &why)) << why;
    EXPECT_FALSE(store.check(vt, stats, &why));
    EXPECT_NE(why.find("no expected digest"), std::string::npos);
    EXPECT_FALSE(store.check(base, sampleStats(501), &why));
    EXPECT_NE(why.find("stats differ"), std::string::npos);

    // Blessing vt with the same stats still leaves the specs distinct.
    store.bless(vt, stats);
    EXPECT_TRUE(store.check(vt, stats));
}

TEST(DigestStore, ReplayMustMatchExecutionCounters)
{
    const RunSpec spec{"bfs", "vt", 1};
    const vtsim::KernelStats exec = sampleStats(900);
    vtsim::KernelStats replay; // Issue-side counters are zero.
    replay.cycles = 900;
    replay.l1Hits = exec.l1Hits;
    replay.l1Misses = exec.l1Misses;
    replay.dramBytes = exec.dramBytes;

    DigestStore store;
    const DigestKey replay_key{spec, "replay"};
    store.bless(replay_key, replay);
    std::string why;
    EXPECT_FALSE(store.check(replay_key, replay, &why));
    EXPECT_NE(why.find("no execution digest"), std::string::npos);

    store.bless({spec, "exec"}, exec);
    EXPECT_TRUE(store.check(replay_key, replay, &why)) << why;

    // A replay that drifts from the execution counters fails even when
    // its own blessed digest agrees.
    vtsim::KernelStats drifted = replay;
    drifted.dramBytes += 64;
    store.bless(replay_key, drifted);
    EXPECT_FALSE(store.check(replay_key, drifted, &why));
    EXPECT_NE(why.find("counters differ"), std::string::npos);
}

TEST(DigestStore, SaveLoadRoundTrip)
{
    DigestStore store;
    store.bless({{"vecadd", "base", 1}, "exec"}, sampleStats(10));
    store.bless({{"vecadd", "vt", 0}, "exec"}, sampleStats(20));
    const std::string path =
        ::testing::TempDir() + "vtbench-digests-" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    store.save(path);
    DigestStore loaded;
    loaded.load(path);
    std::remove(path.c_str());
    EXPECT_EQ(loaded.size(), 2u);
    EXPECT_TRUE(loaded.check({{"vecadd", "base", 1}, "exec"},
                             sampleStats(10)));
    EXPECT_FALSE(loaded.check({{"vecadd", "vt", 0}, "exec"},
                              sampleStats(10)));
}

TEST(Schedule, SameSeedSameScheduleAndJobMix)
{
    EXPECT_EQ(permutation(32, 5, 3), permutation(32, 5, 3));
    EXPECT_NE(permutation(32, 5, 3), permutation(32, 6, 3));
    EXPECT_NE(permutation(32, 5, 3), permutation(32, 5, 4));
    auto sorted = permutation(32, 5, 3);
    std::sort(sorted.begin(), sorted.end());
    std::vector<std::size_t> identity(32);
    std::iota(identity.begin(), identity.end(), 0);
    EXPECT_EQ(sorted, identity);

    std::vector<RunSpec> low, high;
    for (const char *k : {"bfs", "kmeans"}) {
        for (const char *m : {"base", "vt"})
            low.push_back({k, m, 1});
    }
    for (int k = 0; k < 8; ++k) {
        for (const char *m : {"base", "vt"})
            high.push_back({"k" + std::to_string(k), m, 0});
    }
    const auto a = serviceRound(low, high, 2, 11, 4);
    EXPECT_EQ(a, serviceRound(low, high, 2, 11, 4));
    EXPECT_NE(a, serviceRound(low, high, 2, 12, 4));

    // Each client gets the same number of episodes, each spec runs
    // exactly once, and every episode has one low and four high jobs.
    ASSERT_EQ(a.size(), 2u);
    EXPECT_EQ(a[0].size(), 2u);
    EXPECT_EQ(a[1].size(), 2u);
    std::multiset<std::string> seen;
    for (const auto &client : a) {
        for (const Episode &ep : client) {
            EXPECT_EQ(ep.high.size(), 4u);
            seen.insert(ep.low.kernel + ep.low.machine + "L");
            for (const RunSpec &h : ep.high)
                seen.insert(h.kernel + h.machine + "H");
        }
    }
    EXPECT_EQ(seen.size(), low.size() + high.size());
    EXPECT_EQ(std::set<std::string>(seen.begin(), seen.end()).size(),
              seen.size());

    EXPECT_THROW(serviceRound(low, high, 3, 1, 0), std::invalid_argument);
}

TEST(VtSpeedup, PairsBaselineWithVtByLabel)
{
    // Scrambled order: pairing is by label, not by position.
    const std::vector<CycleResult> results = {
        {"b/s1", true, 100}, {"a/s1", false, 200}, {"b/s1", false, 400},
        {"a/s1", true, 100}, {"c/s0", false, 50},  {"c/s0", true, 50},
    };
    // Ratios 2, 4 and 1: geomean 2.
    EXPECT_NEAR(vtSpeedupGeomean(results), 2.0, 1e-12);
    EXPECT_NEAR(vtSpeedupErr(results),
                std::fabs(2.0 - kPaperVtSpeedup) / kPaperVtSpeedup, 1e-12);

    // A result exactly at the paper's gain has zero error.
    EXPECT_NEAR(vtSpeedupErr({{"x", false, 1239}, {"x", true, 1000}}), 0.0,
                1e-12);

    // The same kernel at two scales is two pairs, not one.
    EXPECT_NEAR(vtSpeedupGeomean({{"k/s0", false, 100},
                                  {"k/s0", true, 100},
                                  {"k/s1", false, 400},
                                  {"k/s1", true, 100}}),
                2.0, 1e-12);

    EXPECT_THROW(vtSpeedupGeomean({{"a", false, 10}}),
                 std::invalid_argument);
    EXPECT_THROW(vtSpeedupGeomean({{"a", false, 10},
                                   {"a", false, 12},
                                   {"a", true, 5}}),
                 std::invalid_argument);
    EXPECT_THROW(vtSpeedupGeomean({}), std::invalid_argument);
}

} // namespace
} // namespace vtbench
