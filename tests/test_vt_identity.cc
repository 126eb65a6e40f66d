/**
 * @file
 * Identity tests for the VT-heavy kernels (mummer, needle, bfs): the
 * Virtual Thread manager's swap trigger and swap-in choice run on
 * derived state kept up to date at every residency and readiness
 * transition, and nothing about that may show in the results. A
 * checkpoint taken with a swap pair in flight resumes bit-identically,
 * sharded simulation matches sequential, the swap-policy ablations
 * reproduce reference digests, and the ready-set / derived-state oracle
 * stays clean throughout.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/trace.hh"
#include "gpu/gpu.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

namespace vtsim {
namespace {

const char *const kKernels[] = {"mummer", "needle", "bfs"};

/** An 8-SM VT machine, so --sim-threads 4 gets four real shards. */
GpuConfig
vtMachine()
{
    GpuConfig cfg = GpuConfig::fermiLike();
    cfg.numSms = 8;
    cfg.numMemPartitions = 4;
    cfg.maxCycles = 5'000'000;
    cfg.vtEnabled = true;
    cfg.fastForwardEnabled = true;
    return cfg;
}

/** FNV-1a over every KernelStats field, ipc by its bit pattern. */
std::uint64_t
statsDigest(const KernelStats &s)
{
    std::uint64_t h = 14695981039346656037ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (const std::uint64_t v :
         {std::uint64_t(s.cycles), s.warpInstructions, s.threadInstructions,
          s.ctasCompleted, std::bit_cast<std::uint64_t>(s.ipc), s.l1Hits,
          s.l1Misses, s.l2Hits, s.l2Misses, s.dramRowHits, s.dramRowMisses,
          s.dramBytes, s.swapOuts, s.swapIns, s.stalls.issued,
          s.stalls.memStall, s.stalls.shortStall, s.stalls.barrierStall,
          s.stalls.swapStall, s.stalls.idle}) {
        mix(v);
    }
    return h;
}

KernelStats
launchOn(Gpu &gpu, const std::string &name)
{
    auto wl = makeWorkload(name, 1);
    const Kernel k = wl->buildKernel();
    const LaunchParams lp = wl->prepare(gpu.memory());
    const KernelStats stats = gpu.launch(k, lp);
    EXPECT_TRUE(wl->verify(gpu.memory())) << name;
    return stats;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Run @p name to completion; return its stats and the bytes of its
 *  final-state checkpoint. */
struct FinalState
{
    KernelStats stats;
    std::string checkpoint;
};

FinalState
runToEnd(const GpuConfig &cfg, const std::string &name, unsigned threads)
{
    const std::string path = test::uniqueTempPath(
        name + "_end_" + std::to_string(threads));
    Gpu gpu(cfg);
    gpu.setSimThreads(threads);
    gpu.setCheckpoint(path, 0);
    FinalState out;
    out.stats = launchOn(gpu, name);
    out.checkpoint = readFile(path);
    std::remove(path.c_str());
    return out;
}

// ---------------------------------------------------------------------------
// Checkpoint with a swap pair in flight.
// ---------------------------------------------------------------------------

TEST(VtIdentity, CheckpointMidSwapResumesBitIdentically)
{
    const GpuConfig cfg = vtMachine();
    // A checkpoint one cycle after a swap decision lands inside both
    // halves of the pair: the victim saves for vtSwapOutLatency cycles,
    // the incoming CTA restores after that.
    ASSERT_GE(cfg.vtSwapOutLatency, 2u);
    for (const std::string name : kKernels) {
        const FinalState ref = runToEnd(cfg, name, 1);
        ASSERT_GT(ref.stats.swapOuts, 0u) << name << " never swaps";

        // The swap decisions of the same run, from the textual trace.
        std::ostringstream swaps;
        Trace::instance().enable(TraceFlag::Swap, &swaps);
        {
            Gpu probe(cfg);
            launchOn(probe, name);
        }
        Trace::instance().disable();
        Cycle decision = 0;
        std::istringstream lines(swaps.str());
        for (std::string line; std::getline(lines, line);) {
            if (line.find(": swap out cta ") == std::string::npos)
                continue;
            decision = std::stoull(line);
            if (decision >= ref.stats.cycles / 2)
                break; // Mid-run, so the resumed half does real work.
        }
        ASSERT_GT(decision, 0u) << name;

        // Stop at the first cadence boundary, decision + 1, and save.
        auto wl = makeWorkload(name, 1);
        const Kernel k = wl->buildKernel();
        std::vector<std::uint8_t> image;
        {
            Gpu gpu(cfg);
            const LaunchParams lp = wl->prepare(gpu.memory());
            gpu.setCheckpoint("", decision + 1);
            gpu.requestPreempt();
            gpu.launch(k, lp);
            ASSERT_TRUE(gpu.preempted()) << name;
            gpu.saveCheckpoint(image);
        }

        const std::string end = test::uniqueTempPath(name + "_resumed");
        Gpu r(cfg);
        const LaunchParams lp = r.restoreCheckpoint(image);
        bool in_flight = false;
        for (std::uint32_t s = 0; s < r.numSms(); ++s) {
            if (r.sm(s).vt().nextTransition() != neverCycle)
                in_flight = true;
        }
        EXPECT_TRUE(in_flight) << name << ": no swap in flight at "
                               << decision + 1;
        r.setCheckpoint(end, 0);
        const KernelStats resumed = r.launch(k, lp);
        EXPECT_TRUE(wl->verify(r.memory())) << name;
        EXPECT_EQ(statsDigest(ref.stats), statsDigest(resumed)) << name;
        EXPECT_EQ(ref.stats.cycles, resumed.cycles) << name;
        EXPECT_EQ(ref.stats.swapOuts, resumed.swapOuts) << name;
        EXPECT_TRUE(ref.checkpoint == readFile(end)) << name;
        std::remove(end.c_str());
    }
}

// ---------------------------------------------------------------------------
// Sharded simulation.
// ---------------------------------------------------------------------------

TEST(VtIdentity, ShardedMatchesSequential)
{
    const GpuConfig cfg = vtMachine();
    for (const std::string name : kKernels) {
        const FinalState seq = runToEnd(cfg, name, 1);
        for (const unsigned threads : {2u, 4u}) {
            const FinalState got = runToEnd(cfg, name, threads);
            EXPECT_EQ(statsDigest(seq.stats), statsDigest(got.stats))
                << name << " at " << threads << " threads";
            EXPECT_TRUE(seq.checkpoint == got.checkpoint)
                << name << " at " << threads << " threads";
        }
    }
}

// ---------------------------------------------------------------------------
// Swap-policy ablations against reference digests, with the oracle on.
// ---------------------------------------------------------------------------

TEST(VtIdentity, AblationDigestsMatchReference)
{
    // Recorded from the polling VT manager that the derived-state one
    // replaced; any change in a swap decision changes a digest.
    const struct
    {
        const char *kernel;
        bool anyWarpTrigger;
        std::uint64_t digest;
    } cases[] = {
        {"mummer", true, 0x7eb0dcecb41de0feull},
        {"needle", true, 0x027243b14cdba5e0ull},
        {"bfs", true, 0x387f469a74efa762ull},
        {"mummer", false, 0x8f4ffcdce693cb77ull},
        {"needle", false, 0x1344c0951fd87193ull},
        {"bfs", false, 0x36918b1f902ad96full},
    };
    for (const auto &c : cases) {
        GpuConfig cfg = vtMachine();
        if (c.anyWarpTrigger)
            cfg.vtSwapTrigger = VtSwapTrigger::AnyWarpStalled;
        else
            cfg.vtSwapInPolicy = VtSwapInPolicy::OldestFirst;
        const std::string tag = std::string(c.kernel) +
                                (c.anyWarpTrigger ? "/any-warp-stalled"
                                                  : "/oldest-first");
        Gpu plain(cfg);
        const KernelStats stats = launchOn(plain, c.kernel);
        EXPECT_GT(stats.swapOuts, 0u) << tag;
        EXPECT_EQ(statsDigest(stats), c.digest)
            << tag << ": got 0x" << std::hex << statsDigest(stats);

        // Every tick cross-checks the ready sets, the per-CTA ready
        // counters and the manager's derived state against a full scan.
        cfg.readySetOracle = true;
        Gpu checked(cfg);
        EXPECT_EQ(statsDigest(launchOn(checked, c.kernel)), c.digest)
            << tag << " with the oracle on";
    }
}

} // namespace
} // namespace vtsim
