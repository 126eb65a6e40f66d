/**
 * @file
 * Determinism of the event-horizon fast-forward and the parallel
 * experiment runner. Fast-forward skips cycles, never work: every
 * KernelStats field must be bit-identical to the naive one-cycle-at-a-
 * time loop, on the baseline, Virtual Thread, and CTA-throttled
 * machines alike. Likewise, the parallel runner fans hermetic Gpu
 * instances across threads, so a --jobs 4 batch must reproduce a
 * sequential batch exactly.
 */

#include <gtest/gtest.h>

#include "bench_common.hh"
#include "gpu/gpu.hh"
#include "parallel_runner.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {
namespace {

using test::expectIdenticalStats;
using test::smallConfig;

/** Run @p name on @p cfg; optionally report the fast-forwarded cycles. */
KernelStats
runOn(const GpuConfig &cfg, const std::string &name,
      Cycle *fast_forwarded = nullptr)
{
    auto wl = makeWorkload(name, 0);
    const Kernel k = wl->buildKernel();
    Gpu gpu(cfg);
    const LaunchParams lp = wl->prepare(gpu.memory());
    const KernelStats stats = gpu.launch(k, lp);
    EXPECT_TRUE(wl->verify(gpu.memory())) << name;
    if (fast_forwarded)
        *fast_forwarded = gpu.fastForwardedCycles();
    return stats;
}

TEST(FastForward, BitIdenticalStatsOnBaseline)
{
    GpuConfig on = smallConfig();
    on.fastForwardEnabled = true;
    GpuConfig off = on;
    off.fastForwardEnabled = false;
    for (const auto &name : {"vecadd", "reduce", "bfs", "matmul"}) {
        const KernelStats a = runOn(on, name);
        const KernelStats b = runOn(off, name);
        expectIdenticalStats(a, b, std::string("baseline/") + name);
    }
}

TEST(FastForward, BitIdenticalStatsUnderVirtualThread)
{
    GpuConfig on = smallConfig();
    on.vtEnabled = true;
    on.fastForwardEnabled = true;
    GpuConfig off = on;
    off.fastForwardEnabled = false;
    for (const auto &name : {"vecadd", "bfs", "stencil"}) {
        const KernelStats a = runOn(on, name);
        const KernelStats b = runOn(off, name);
        expectIdenticalStats(a, b, std::string("vt/") + name);
    }
}

TEST(FastForward, BitIdenticalStatsUnderThrottling)
{
    GpuConfig on = smallConfig();
    on.throttleEnabled = true;
    on.fastForwardEnabled = true;
    GpuConfig off = on;
    off.fastForwardEnabled = false;
    for (const auto &name : {"vecadd", "bfs"}) {
        const KernelStats a = runOn(on, name);
        const KernelStats b = runOn(off, name);
        expectIdenticalStats(a, b, std::string("throttle/") + name);
    }
}

TEST(FastForward, ActuallySkipsCyclesOnMemoryBoundWork)
{
    // A pointer chase leaves the machine event-blocked for long DRAM
    // windows; the horizon jump must cover a meaningful share of them.
    GpuConfig cfg = smallConfig();
    cfg.fastForwardEnabled = true;
    Cycle skipped = 0;
    runOn(cfg, "bfs", &skipped);
    EXPECT_GT(skipped, 0u);

    cfg.fastForwardEnabled = false;
    runOn(cfg, "bfs", &skipped);
    EXPECT_EQ(skipped, 0u);
}

TEST(ParallelRunner, MatchesSequentialRun)
{
    // The acceptance gate: a --jobs 4 batch reproduces jobs=1 exactly,
    // result for result, field for field.
    const GpuConfig base = smallConfig();
    GpuConfig vt = base;
    vt.vtEnabled = true;

    std::vector<bench::RunSpec> specs;
    for (const auto &name : {"vecadd", "reduce", "bfs", "matmul"}) {
        specs.push_back({name, base, 0});
        specs.push_back({name, vt, 0});
    }
    const auto sequential = bench::runAll(specs, 1);
    const auto parallel = bench::runAll(specs, 4);

    ASSERT_EQ(sequential.size(), specs.size());
    ASSERT_EQ(parallel.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(sequential[i].workload, parallel[i].workload);
        EXPECT_TRUE(parallel[i].verified);
        expectIdenticalStats(sequential[i].stats, parallel[i].stats,
                             "jobs4/" + specs[i].workload);
    }
}

TEST(ParallelRunner, ResolveJobsPrecedence)
{
    const char *argv_flag[] = {"bin", "--jobs", "3"};
    EXPECT_EQ(bench::resolveJobs(3, const_cast<char **>(argv_flag)), 3u);

    const char *argv_eq[] = {"bin", "--jobs=7"};
    EXPECT_EQ(bench::resolveJobs(2, const_cast<char **>(argv_eq)), 7u);

    // A nonsense request is an error, not a silent one-worker
    // fallback: the user asked for something specific and got it
    // wrong.
    const char *argv_zero[] = {"bin", "--jobs", "0"};
    EXPECT_THROW(bench::resolveJobs(3, const_cast<char **>(argv_zero)),
                 FatalError);
    const char *argv_text[] = {"bin", "--jobs=banana"};
    EXPECT_THROW(bench::resolveJobs(2, const_cast<char **>(argv_text)),
                 FatalError);
}

} // namespace
} // namespace vtsim
