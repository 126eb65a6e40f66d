/**
 * @file
 * Properties of the incrementally maintained ready-warp sets.
 *
 * Two guarantees back the O(ready warps) issue path:
 *   (a) the per-scheduler ready lists and stall counters always agree
 *       with a full rescan of every warp — checked every tick by the
 *       in-simulator oracle (readySetOracle), which panics on the first
 *       divergence; and
 *   (b) the ready sets are stats-invisible: end-of-run KernelStats
 *       match the golden manifest (tests/golden.hh), which was blessed
 *       while the full-scan issue path still shipped and came out
 *       byte-identical under it, on the baseline, Virtual Thread, and
 *       CTA-throttled machines alike.
 * Configurations are drawn from a seeded RNG so the properties are
 * exercised across scheduler policies, scheduler counts, and both swap
 * triggers, not just the defaults.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "golden.hh"
#include "gpu/gpu.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {
namespace {

using golden::randomConfig;
using test::smallConfig;

KernelStats
runOn(const GpuConfig &cfg, const std::string &name)
{
    auto wl = makeWorkload(name, 0);
    const Kernel k = wl->buildKernel();
    Gpu gpu(cfg);
    const LaunchParams lp = wl->prepare(gpu.memory());
    const KernelStats stats = gpu.launch(k, lp);
    EXPECT_TRUE(wl->verify(gpu.memory())) << name;
    return stats;
}

/** Baseline, VT, and throttled variants of one base config. */
std::vector<std::pair<std::string, GpuConfig>>
machineVariants(const GpuConfig &base)
{
    GpuConfig vt = base;
    vt.vtEnabled = true;
    GpuConfig throttled = base;
    throttled.throttleEnabled = true;
    return {{"baseline", base}, {"vt", vt}, {"throttle", throttled}};
}

/**
 * Property (a): the oracle cross-checks lists and counters against a
 * full scan on every non-fast-forwarded tick and panics on divergence,
 * so a clean run IS the assertion. Seeded-random configs x the three
 * machines x a mix of barrier-heavy, divergent, and memory-bound
 * workloads.
 */
TEST(ReadySet, OracleCleanAcrossRandomConfigs)
{
    std::mt19937 rng(20160618); // ISCA'16 vintage; fixed for repro.
    const char *workloads[] = {"vecadd", "reduce", "bfs", "stencil",
                               "histogram", "transpose"};
    for (int draw = 0; draw < 4; ++draw) {
        GpuConfig cfg = randomConfig(rng);
        cfg.readySetOracle = true;
        const std::string wl = workloads[rng() % 6];
        for (auto &[tag, variant] : machineVariants(cfg))
            runOn(variant, wl);
    }
}

/** Property (b) on the three machines with the default config. */
TEST(ReadySet, BitIdenticalStatsFeatureOnOff)
{
    golden::expectGoldenPrefix("ready/default/");
}

/** Property (b) again under the seeded randomConfig draws. */
TEST(ReadySet, BitIdenticalStatsFeatureOnOffRandomConfigs)
{
    golden::expectGoldenPrefix("ready/" + std::to_string(20160618) + "/");
    golden::expectGoldenPrefix("ready/" + std::to_string(0x5eed) + "/");
}

} // namespace
} // namespace vtsim
