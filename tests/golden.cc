#include "golden.hh"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "gpu/gpu.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

#ifndef VTSIM_SOURCE_DIR
#error "VTSIM_SOURCE_DIR must point at the source tree"
#endif

namespace vtsim::golden {
namespace {

/** Interval-sampler cadence of every golden run. */
constexpr Cycle kSampleInterval = 1000;

const char *const kManifest =
    VTSIM_SOURCE_DIR "/tests/golden/kernel_stats.txt";

std::string
formatLine(const std::string &key, Cycle cycles, double ipc,
           std::uint64_t digest)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), " cycles=%" PRIu64 " ipc=%.6f"
                  " digest=%016" PRIx64, std::uint64_t(cycles), ipc, digest);
    return key + buf;
}

/**
 * Launch @p names (one grid each, priority = grid index) at @p scale on
 * a fresh Gpu of @p cfg with the interval sampler on, and digest the
 * result. A single name goes through Gpu::launch, several through
 * launchConcurrent under @p policy.
 */
std::string
simulate(const std::string &key, const GpuConfig &cfg,
         const std::vector<std::string> &names, SharePolicy policy,
         std::uint32_t scale, bool &verified)
{
    std::ostringstream series;
    Gpu gpu(cfg);
    gpu.enableIntervalSampler(kSampleInterval, series);
    std::vector<std::unique_ptr<Workload>> wls;
    std::vector<Kernel> kernels;
    for (const std::string &name : names) {
        wls.push_back(makeWorkload(name, scale));
        kernels.push_back(wls.back()->buildKernel());
    }
    std::vector<GridLaunch> launches;
    for (std::size_t g = 0; g < wls.size(); ++g) {
        GridLaunch gl;
        gl.kernel = &kernels[g];
        gl.params = wls[g]->prepare(gpu.memory());
        gl.priority = std::uint32_t(g);
        launches.push_back(std::move(gl));
    }
    const KernelStats stats =
        launches.size() == 1
            ? gpu.launch(*launches[0].kernel, launches[0].params)
            : gpu.launchConcurrent(launches, policy);
    verified = true;
    for (const auto &wl : wls)
        verified = verified && wl->verify(gpu.memory());

    test::Fnv1a fnv;
    test::mixStats(fnv, stats);
    for (const GridStats &g : gpu.gridStats())
        test::mixStats(fnv, g.stats);
    fnv.mixBytes(series.str());
    return formatLine(key, stats.cycles, stats.ipc, fnv.h);
}

/** Run @p name at scale 1 to completion and digest its final
 *  checkpoint image. */
std::string
checkpointImage(const std::string &key, const GpuConfig &cfg,
                const std::string &name, bool &verified)
{
    const std::string path = test::uniqueTempPath(
        "golden-" + name + ".ckpt");
    auto wl = makeWorkload(name, 1);
    const Kernel k = wl->buildKernel();
    Gpu gpu(cfg);
    gpu.setCheckpoint(path, 0);
    const LaunchParams lp = wl->prepare(gpu.memory());
    const KernelStats stats = gpu.launch(k, lp);
    verified = wl->verify(gpu.memory());
    std::ifstream in(path, std::ios::binary);
    std::ostringstream image;
    image << in.rdbuf();
    std::remove(path.c_str());
    verified = verified && !image.str().empty();
    test::Fnv1a fnv;
    fnv.mixBytes(image.str());
    return formatLine(key, stats.cycles, stats.ipc, fnv.h);
}

/** Baseline, VT and throttled variants of one base config. */
std::vector<std::pair<std::string, GpuConfig>>
machineVariants(const GpuConfig &base)
{
    GpuConfig vt = base;
    vt.vtEnabled = true;
    GpuConfig throttled = base;
    throttled.throttleEnabled = true;
    return {{"baseline", base}, {"vt", vt}, {"throttled", throttled}};
}

/** test_microcode's machine shape: 4 SMs, 2 partitions. */
GpuConfig
gridMachine(GpuConfig cfg)
{
    cfg.numSms = 4;
    cfg.numMemPartitions = 2;
    cfg.maxCycles = 5'000'000;
    cfg.fastForwardEnabled = true;
    return cfg;
}

void
addRun(std::vector<Case> &out, std::string key, const GpuConfig &cfg,
       std::vector<std::string> names,
       SharePolicy policy = SharePolicy::VtFill, std::uint32_t scale = 0)
{
    Case c;
    c.key = key;
    c.run = [key, cfg, names = std::move(names), policy, scale](bool &ok) {
        return simulate(key, cfg, names, policy, scale, ok);
    };
    out.push_back(std::move(c));
}

std::vector<Case>
buildCases()
{
    std::vector<Case> out;
    for (const auto &[arch, base] :
         {std::pair<std::string, GpuConfig>{"fermi", GpuConfig::fermiLike()},
          {"kepler", GpuConfig::keplerLike()}}) {
        for (const std::string &wl : benchmarkNames()) {
            for (const auto &[tag, cfg] : machineVariants(gridMachine(base)))
                addRun(out, arch + "/" + wl + "/" + tag, cfg, {wl});
        }
    }

    for (const char *wl : {"vecadd", "reduce", "bfs", "matmul"}) {
        for (const auto &[tag, cfg] : machineVariants(test::smallConfig()))
            addRun(out, std::string("ready/default/") + wl + "/" + tag, cfg,
                   {wl});
    }
    // The draw sequences of test_ready_set's seeded properties: each
    // draw takes a config, then a workload from that test's list.
    const std::pair<std::uint32_t, std::vector<std::string>> seeds[] = {
        {20160618,
         {"vecadd", "reduce", "bfs", "stencil", "histogram", "transpose"}},
        {0x5eed, {"vecadd", "bfs", "stencil", "histogram"}},
    };
    for (const auto &[seed, workloads] : seeds) {
        std::mt19937 rng(seed);
        for (int draw = 0; draw < 4; ++draw) {
            const GpuConfig cfg = randomConfig(rng);
            const std::string wl = workloads[rng() % workloads.size()];
            for (const auto &[tag, variant] : machineVariants(cfg)) {
                addRun(out,
                       "ready/" + std::to_string(seed) + "/d" +
                           std::to_string(draw) + "/" + wl + "/" + tag,
                       variant, {wl});
            }
        }
    }

    GpuConfig vt = gridMachine(GpuConfig::fermiLike());
    vt.vtEnabled = true;
    // test_vt_identity's 8-SM VT machine at scale 1. At scale 0 no
    // kernel swaps, so only these runs exercise the swap machinery.
    GpuConfig vt8 = vt;
    vt8.numSms = 8;
    vt8.numMemPartitions = 4;
    for (const std::string &wl : benchmarkNames())
        addRun(out, "vt8/" + wl, vt8, {wl}, SharePolicy::VtFill, 1);
    // The same machine under the two non-default warp schedulers, with
    // and without VT, so every policy is pinned where swaps happen.
    for (const SchedulerPolicy policy : {SchedulerPolicy::LooseRoundRobin,
                                         SchedulerPolicy::TwoLevel}) {
        GpuConfig sched_vt = vt8;
        sched_vt.schedulerPolicy = policy;
        GpuConfig sched_base = sched_vt;
        sched_base.vtEnabled = false;
        for (const std::string &wl : benchmarkNames()) {
            const std::string prefix =
                "sched/" + toString(policy) + "/" + wl + "/";
            addRun(out, prefix + "baseline", sched_base, {wl},
                   SharePolicy::VtFill, 1);
            addRun(out, prefix + "vt", sched_vt, {wl}, SharePolicy::VtFill,
                   1);
        }
    }

    const std::vector<std::vector<std::string>> mixes = {
        {"vecadd", "matmul"},
        {"spmv", "blackscholes"},
        {"stencil", "bitonic"},
        {"histogram", "matmul"},
        {"vecadd", "stencil", "matmul"},
    };
    for (const SharePolicy policy :
         {SharePolicy::Spatial, SharePolicy::VtFill, SharePolicy::Preempt}) {
        for (const auto &mix : mixes) {
            std::string label;
            for (const auto &name : mix)
                label += (label.empty() ? "" : "+") + name;
            addRun(out, "corun/" + toString(policy) + "/" + label, vt, mix,
                   policy);
        }
    }

    for (const char *wl : {"bfs", "needle", "mummer"}) {
        const std::string key = std::string("ckpt/") + wl + "/vt";
        Case c;
        c.key = key;
        c.run = [key, vt8, name = std::string(wl)](bool &ok) {
            return checkpointImage(key, vt8, name, ok);
        };
        out.push_back(std::move(c));
    }
    return out;
}

/** key -> full line of the committed manifest. */
std::map<std::string, std::string>
loadManifest()
{
    std::map<std::string, std::string> out;
    std::ifstream in(kManifest);
    for (std::string line; std::getline(in, line);) {
        if (line.empty())
            continue;
        out[line.substr(0, line.find(' '))] = line;
    }
    return out;
}

} // namespace

GpuConfig
randomConfig(std::mt19937 &rng)
{
    GpuConfig cfg = test::smallConfig();
    const SchedulerPolicy policies[] = {SchedulerPolicy::LooseRoundRobin,
                                        SchedulerPolicy::GreedyThenOldest,
                                        SchedulerPolicy::TwoLevel};
    cfg.schedulerPolicy = policies[rng() % 3];
    cfg.numSchedulers = 1 + rng() % 4;
    cfg.vtSwapTrigger = rng() % 2 == 0 ? VtSwapTrigger::AllWarpsStalled
                                       : VtSwapTrigger::AnyWarpStalled;
    cfg.vtStallThreshold = 2 + rng() % 6;
    return cfg;
}

const std::vector<Case> &
cases()
{
    static const std::vector<Case> all = buildCases();
    return all;
}

void
expectGolden(const std::string &key)
{
    const Case *found = nullptr;
    for (const Case &c : cases()) {
        if (c.key == key)
            found = &c;
    }
    ASSERT_NE(found, nullptr) << key << " is not in the golden grid";
    const auto manifest = loadManifest();
    const auto it = manifest.find(key);
    ASSERT_NE(it, manifest.end())
        << key << " is missing from " << kManifest
        << "; regenerate it with scripts/bless_golden.sh";
    bool verified = false;
    const std::string line = found->run(verified);
    EXPECT_TRUE(verified) << key << ": output check failed";
    EXPECT_EQ(line, it->second)
        << key << " differs from the golden manifest";
}

void
expectGoldenPrefix(const std::string &prefix)
{
    int found = 0;
    for (const Case &c : cases()) {
        if (c.key.rfind(prefix, 0) == 0) {
            expectGolden(c.key);
            ++found;
        }
    }
    EXPECT_GT(found, 0) << "no golden case starts with " << prefix;
}

std::vector<std::string>
manifestKeys()
{
    std::vector<std::string> out;
    for (const auto &entry : loadManifest())
        out.push_back(entry.first);
    return out;
}

} // namespace vtsim::golden
