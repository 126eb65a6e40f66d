/**
 * @file
 * Unit tests for the warp scheduling policies, and a differential test
 * of the ready-list walk (sm/warp_scheduler.hh) against the reference
 * "collect every candidate, then pick" schedulers
 * (tests/reference_scheduler.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/rng.hh"
#include "golden.hh"
#include "reference_scheduler.hh"
#include "sim/serializer.hh"
#include "sm/warp_scheduler.hh"

namespace vtsim {
namespace {

constexpr std::uint64_t kNone = ~0ull;

/** Ready-list entries of the given ranks (ascending), with a payload
 *  the scheduler must ignore. */
std::vector<std::uint64_t>
entries(std::initializer_list<std::uint64_t> ranks)
{
    std::vector<std::uint64_t> out;
    for (const std::uint64_t r : ranks)
        out.push_back(r << WarpScheduler::payloadBits | (r * 7919 % 4096));
    return out;
}

/** Select from @p list where only ranks outside @p blocked can issue;
 *  returns the chosen rank or kNone. */
std::uint64_t
pick(WarpScheduler &s, const std::vector<std::uint64_t> &list,
     std::set<std::uint64_t> blocked = {})
{
    const std::size_t i = s.select(list, [&](std::uint64_t e) {
        return !blocked.count(WarpScheduler::rank(e));
    });
    return i == list.size() ? kNone : WarpScheduler::rank(list[i]);
}

std::vector<std::uint8_t>
stateBytes(const SimComponent &c)
{
    Serializer ser;
    c.save(ser);
    return ser.buffer();
}

TEST(Lrr, RotatesThroughCandidates)
{
    WarpScheduler s(SchedulerPolicy::LooseRoundRobin, 1);
    const auto l = entries({10, 20, 30});
    EXPECT_EQ(pick(s, l), 10u);
    EXPECT_EQ(pick(s, l), 20u);
    EXPECT_EQ(pick(s, l), 30u);
    EXPECT_EQ(pick(s, l), 10u); // wraps
}

TEST(Lrr, SkipsMissingCandidates)
{
    WarpScheduler s(SchedulerPolicy::LooseRoundRobin, 1);
    const auto l = entries({10, 20, 30});
    EXPECT_EQ(pick(s, l), 10u);
    // 20 cannot issue next cycle: goes to 30.
    EXPECT_EQ(pick(s, l, {20}), 30u);
    // Nor can 10 on the wrap: 20 again.
    EXPECT_EQ(pick(s, l, {10}), 20u);
}

TEST(Gto, StaysGreedyWhileAvailable)
{
    WarpScheduler s(SchedulerPolicy::GreedyThenOldest, 1);
    const auto l = entries({5, 7, 9});
    EXPECT_EQ(pick(s, l), 5u); // oldest
    EXPECT_EQ(pick(s, l), 5u);
    EXPECT_EQ(pick(s, l), 5u);
}

TEST(Gto, FallsBackToOldestWhenGreedyStalls)
{
    WarpScheduler s(SchedulerPolicy::GreedyThenOldest, 1);
    const auto l = entries({5, 7, 9});
    EXPECT_EQ(pick(s, l), 5u);       // greedy = 5
    EXPECT_EQ(pick(s, l, {5}), 7u);  // oldest available
    EXPECT_EQ(pick(s, l), 7u);       // and stays greedy on 7
    // The greedy warp off the list entirely: oldest again.
    EXPECT_EQ(pick(s, entries({9, 11})), 9u);
}

TEST(TwoLevel, PrefersActiveSetMembers)
{
    WarpScheduler s(SchedulerPolicy::TwoLevel, 2);
    const auto l = entries({1, 2, 3, 4});
    // First pick promotes the oldest into the active set.
    EXPECT_EQ(pick(s, l), 1u);
    // 1 still ready: stays inside the active set.
    EXPECT_EQ(pick(s, l), 1u);
    // 1 stalls: promote 2.
    EXPECT_EQ(pick(s, l, {1}), 2u);
    // Both 1 and 2 in the set now; LRR between them.
    const auto k1 = pick(s, l);
    const auto k2 = pick(s, l);
    EXPECT_NE(k1, k2);
    EXPECT_TRUE((k1 == 1 || k1 == 2) && (k2 == 1 || k2 == 2));
    // Set full and neither member ready: 3 joins, evicting 1.
    EXPECT_EQ(pick(s, l, {1, 2}), 3u);
    // Members {2, 3} blocked: the evicted 1 is the oldest and rejoins,
    // evicting 2.
    EXPECT_EQ(pick(s, l, {2, 3}), 1u);
    // Members {1, 3}: LRR moves on to 3 although 2 is older.
    EXPECT_EQ(pick(s, l), 3u);
}

TEST(Factory, CreatesEachPolicy)
{
    for (auto policy : {SchedulerPolicy::LooseRoundRobin,
                        SchedulerPolicy::GreedyThenOldest,
                        SchedulerPolicy::TwoLevel}) {
        WarpScheduler s(policy, 4);
        const auto l = entries({1, 2, 3});
        EXPECT_LT(s.select(l, [](std::uint64_t) { return true; }),
                  l.size());
        EXPECT_EQ(s.select(l, [](std::uint64_t) { return false; }),
                  l.size());
        EXPECT_EQ(s.select({}, [](std::uint64_t) { return true; }), 0u);
    }
}

/** Property: every policy returns an index the predicate accepted, or
 *  the list size exactly when none can issue. */
class PolicyProperty : public ::testing::TestWithParam<SchedulerPolicy> {};

TEST_P(PolicyProperty, ValidIndexOnRandomCandidateSets)
{
    WarpScheduler s(GetParam(), 4);
    Rng rng(99);
    for (int round = 0; round < 500; ++round) {
        std::set<std::uint64_t> ranks;
        const int n = 1 + rng.nextBelow(12);
        for (int i = 0; i < n; ++i)
            ranks.insert(rng.nextBelow(64));
        std::vector<std::uint64_t> l;
        std::set<std::uint64_t> issuable;
        for (const std::uint64_t r : ranks) {
            l.push_back(r << WarpScheduler::payloadBits);
            if (rng.nextBool())
                issuable.insert(r);
        }
        const std::size_t idx = s.select(l, [&](std::uint64_t e) {
            return issuable.count(WarpScheduler::rank(e)) != 0;
        });
        if (issuable.empty()) {
            ASSERT_EQ(idx, l.size());
        } else {
            ASSERT_LT(idx, l.size());
            ASSERT_TRUE(issuable.count(WarpScheduler::rank(l[idx])));
        }
    }
}

TEST_P(PolicyProperty, AllWarpsCompleteFiniteWork)
{
    // Warps retire after five issues; every policy must drain the pool
    // (greedy policies drain oldest-first, but must still drain).
    WarpScheduler s(GetParam(), 2);
    std::map<std::uint64_t, int> remaining;
    for (std::uint64_t k = 0; k < 6; ++k)
        remaining[k] = 5;
    int rounds = 0;
    while (!remaining.empty() && rounds < 1000) {
        std::vector<std::uint64_t> avail;
        for (const auto &[k, n] : remaining)
            avail.push_back(k << WarpScheduler::payloadBits);
        const std::uint64_t key = pick(s, avail);
        if (--remaining[key] == 0)
            remaining.erase(key);
        ++rounds;
    }
    EXPECT_TRUE(remaining.empty());
    EXPECT_EQ(rounds, 30);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyProperty,
                         ::testing::Values(
                             SchedulerPolicy::LooseRoundRobin,
                             SchedulerPolicy::GreedyThenOldest,
                             SchedulerPolicy::TwoLevel));

/** A scheduler checkpoint with random state: a greedy or last rank
 *  (often one on the list, sometimes ~0 or 0) and, for two-level, a
 *  random active set no larger than @p active_set. */
std::vector<std::uint8_t>
randomState(SchedulerPolicy policy, std::uint32_t active_set,
            std::uint64_t rank_space, Rng &rng)
{
    const auto random_rank = [&]() -> std::uint64_t {
        switch (rng.nextBelow(8)) {
          case 0: return 0;
          case 1: return ~0ull;
          default: return rng.nextBelow(rank_space);
        }
    };
    Serializer ser;
    switch (policy) {
      case SchedulerPolicy::GreedyThenOldest: {
        const std::size_t sec = ser.beginSection("wgto");
        ser.put(random_rank());
        ser.endSection(sec);
        break;
      }
      case SchedulerPolicy::LooseRoundRobin: {
        const std::size_t sec = ser.beginSection("wlrr");
        ser.put(random_rank() % rank_space);
        ser.endSection(sec);
        break;
      }
      case SchedulerPolicy::TwoLevel: {
        const std::size_t sec = ser.beginSection("w2lv");
        std::set<std::uint64_t> members;
        const std::uint64_t n = rng.nextBelow(active_set + 1);
        while (members.size() < n)
            members.insert(rng.nextBelow(rank_space));
        ser.putVec(std::vector<std::uint64_t>(members.begin(),
                                              members.end()));
        ser.put(random_rank() % rank_space);
        ser.endSection(sec);
        break;
      }
    }
    return ser.buffer();
}

/**
 * The list walk and the reference pick side by side, thousands of steps
 * per policy: random sorted ready lists of age * 256 + w ranks, random
 * per-warp readiness and per-unit budgets, and now and then a random
 * greedy/last rank and active set restored into both. At every step
 * both must choose the same warp and end in byte-identical state; when
 * nothing can issue the walk must have asked about every entry exactly
 * once, and otherwise about none twice.
 */
class SchedulerDifferential
    : public ::testing::TestWithParam<SchedulerPolicy>
{};

TEST_P(SchedulerDifferential, MatchesReferenceOnRandomLists)
{
    const SchedulerPolicy policy = GetParam();
    constexpr std::uint64_t kAges = 6;
    constexpr std::uint64_t kWarps = 10;
    constexpr std::uint64_t kRankSpace = kAges * 256;
    Rng rng(20160618 + std::uint64_t(policy));
    for (const std::uint32_t active_set : {1u, 2u, 3u, 6u}) {
        WarpScheduler walk(policy, active_set);
        auto ref = test::ReferenceScheduler::create(policy, active_set);
        for (int step = 0; step < 3000; ++step) {
            if (rng.nextBelow(16) == 0) {
                const auto image =
                    randomState(policy, active_set, kRankSpace, rng);
                Deserializer a(image), b(image);
                walk.restore(a);
                ref->restore(b);
            }
            // Ready list: a random subset of (age, w), ascending, each
            // entry with a random payload, readiness and unit.
            std::vector<std::uint64_t> list;
            std::map<std::uint64_t, std::pair<bool, std::uint32_t>> warp;
            const double density = 0.05 + 0.9 * rng.nextFloat();
            for (std::uint64_t age = 0; age < kAges; ++age) {
                const std::uint64_t slot = rng.nextBelow(1u << 24);
                for (std::uint64_t w = 0; w < kWarps; ++w) {
                    if (!rng.nextBool(density))
                        continue;
                    const std::uint64_t r = age * 256 + w;
                    list.push_back(r << WarpScheduler::payloadBits | slot);
                    warp[r] = {rng.nextBool(0.1 + 0.8 * density),
                               std::uint32_t(rng.nextBelow(3))};
                }
            }
            bool budget[3];
            for (bool &b : budget)
                b = rng.nextBool(0.75);
            const auto issuable = [&](std::uint64_t r) {
                return warp.at(r).first && budget[warp.at(r).second];
            };

            std::vector<test::WarpCandidate> cands;
            for (const std::uint64_t e : list) {
                const std::uint64_t r = WarpScheduler::rank(e);
                if (issuable(r))
                    cands.push_back({r, r});
            }
            // The reference's contract: order of candidates is irrelevant.
            for (std::size_t i = cands.size(); i > 1; --i)
                std::swap(cands[i - 1], cands[rng.nextBelow(i)]);
            const std::uint64_t want =
                cands.empty() ? kNone : cands[ref->pick(cands)].key;

            std::map<std::uint64_t, int> asked;
            const std::size_t i = walk.select(list, [&](std::uint64_t e) {
                const std::uint64_t r = WarpScheduler::rank(e);
                ++asked[r];
                return issuable(r);
            });
            const std::uint64_t got =
                i == list.size() ? kNone : WarpScheduler::rank(list[i]);
            ASSERT_EQ(got, want) << "step " << step << " active set "
                                 << active_set;
            ASSERT_EQ(stateBytes(walk), stateBytes(*ref))
                << "step " << step << " active set " << active_set;
            for (const auto &[r, n] : asked) {
                ASSERT_EQ(n, 1) << "rank " << r << " asked twice";
            }
            if (got == kNone) {
                ASSERT_EQ(asked.size(), list.size());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SchedulerDifferential,
                         ::testing::Values(
                             SchedulerPolicy::LooseRoundRobin,
                             SchedulerPolicy::GreedyThenOldest,
                             SchedulerPolicy::TwoLevel));

/** The 16 workloads on the 8-SM machine at scale 1, VT off and on,
 *  under each non-default policy, looked up in the golden manifest
 *  (GTO is pinned by the vt8/ and grid lines). */
TEST(SchedulerGolden, LrrMatchesManifest)
{
    golden::expectGoldenPrefix("sched/lrr/");
}

TEST(SchedulerGolden, TwoLevelMatchesManifest)
{
    golden::expectGoldenPrefix("sched/two-level/");
}

} // namespace
} // namespace vtsim
