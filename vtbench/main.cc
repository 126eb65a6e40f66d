/**
 * @file
 * vtbench: runs one named workload against vtsim's public API, checks
 * every simulated result against expected-stats digests, and prints
 * the end-to-end metrics (plain run) or the per-layer metrics (traced
 * run) as the last line of stdout, one JSON object.
 *
 *   vtbench --workload NAME --seed N --seconds S --trace 0|1
 *           --digests FILE --out DIR
 *   vtbench --bless --digests FILE --out DIR
 *
 * Workloads (NOTES.md says why each exists and what it bypasses):
 *   fig3_seq      16 kernels x {baseline, VT} at scale 1, sequential;
 *                 its traced run also measures the shard pool and
 *                 the replay of recorded memory traces (no SM work)
 *   service_jobs  closed loop of preemptible jobs through vtsimd
 *
 * Every host timing is a median over timed rounds that follow one
 * warm-up round; the timed region holds only calls into vtsim. --out
 * holds the scratch files (traces, spool, socket) and the span file a
 * traced run writes.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.hh"
#include "gpu/gpu.hh"
#include "mem/mtrace.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/protocol.hh"
#include "service/service.hh"
#include "workloads/workload.hh"

namespace {

using namespace vtbench;
namespace svc = vtsim::service;
namespace fs = std::filesystem;

/** setup_s is the median over complete set-ups: at least kSetups, and
 *  more while they have taken less than kSetupBudget seconds in all, so
 *  a millisecond set-up is still a median over many samples. */
constexpr unsigned kSetups = 3;
constexpr unsigned kMaxSetups = 1000;
constexpr double kSetupBudget = 2.0;
/** Timed rounds at least (per kind, plain and traced). */
constexpr unsigned kMinRounds = 4;
/** Enough per-run latencies that 10 lie beyond the p90. */
constexpr std::size_t kMinLatencies = 110;
constexpr unsigned kShardThreads = 2;
/** Sharded and replay rounds in a traced fig3_seq run. */
constexpr unsigned kExtraRounds = 2;
constexpr unsigned kServiceWorkers = 2;
constexpr unsigned kServiceClients = 2;
/** Gauge chunks on each worker's CPU after each service round (~2% of
 *  a round in all). */
constexpr unsigned kGaugeChunksPerCpu = 8;
/** Preemption cadence of low-priority jobs, in simulated cycles. */
constexpr std::int64_t kLowCadence = 1000;

/** Kernels whose traces the replay rounds record: the half of the suite
 *  with the highest memory-stall share (sm.stall.mem_frac, 0.56-0.82) on the
 *  baseline at scale 1. NOTES.md has the per-kernel figures. */
const std::vector<std::string> kReplayKernels = {
    "mummer", "bfs", "vecadd", "needle", "spmv", "saxpy", "histogram",
    "reduce"};
/** Kernels the service runs at low priority, at scale 1: the four with
 *  the most simulated cycles on the baseline, except bitonic, whose
 *  ~1 s run alone would set the length of a round. */
const std::vector<std::string> kLowKernels = {"needle", "mummer", "matmul",
                                              "bfs"};
const std::vector<std::string> kMachines = {"base", "vt"};
/** Jobs each client runs as part of the service's set-up. */
const std::vector<RunSpec> kSetupJobs = {{"vecadd", "base", 0},
                                         {"vecadd", "vt", 0}};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    bool bless = false;
    std::string digests;
    std::string out;
};

/** Process CPU seconds, every thread. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;
}

vtsim::GpuConfig
machineConfig(const std::string &machine)
{
    vtsim::GpuConfig cfg = vtsim::GpuConfig::fermiLike();
    cfg.vtEnabled = machine == "vt";
    return cfg;
}

CycleResult
cycleResult(const RunSpec &spec, const vtsim::KernelStats &stats)
{
    return {spec.kernel + "/s" + std::to_string(spec.scale),
            spec.machine == "vt", stats.cycles};
}

// --------------------------------------------------------------------
// Metric tables: the names BENCHMARK.json lists, with the end-to-end
// metric (and workload) each per-layer metric should move.
// --------------------------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
    const char *moves;
};

const MetricDef kEndToEnd[] = {
    {"setup_s", "s", ""},
    {"cpu_s", "s", ""},
    {"peak_rss_mb", "MB", ""},
    {"sim_kcycles_per_s", "kcycles/s", ""},
    {"jobs_per_s", "1/s", ""},
    {"job_p50_ms", "ms", ""},
    {"job_p90_ms", "ms", ""},
    {"ok_frac", "fraction", ""},
    {"sim_cycles", "cycles", ""},
    {"vt_speedup_err", "fraction", ""},
};

const MetricDef kPerLayer[] = {
    {"workloads.build_kernel_ms", "ms", "setup_s on every workload"},
    {"workloads.prepare_ms", "ms", "cpu_s, sim_kcycles_per_s on fig3_seq"},
    {"workloads.verify_ms", "ms", "cpu_s, sim_kcycles_per_s on fig3_seq"},
    {"gpu.construct_ms", "ms", "setup_s on every workload"},
    {"gpu.reset_ms", "ms", "sim_kcycles_per_s on fig3_seq"},
    {"gpu.launch_ms", "ms", "sim_kcycles_per_s on fig3_seq"},
    {"gpu.launch_share", "fraction", "sim_kcycles_per_s on fig3_seq"},
    {"gpu.ff_frac", "fraction", "sim_kcycles_per_s on fig3_seq"},
    {"gpu.ns_per_warp_instr.base", "ns",
     "sim_kcycles_per_s on fig3_seq; none on replay"},
    {"gpu.ns_per_warp_instr.vt", "ns",
     "sim_kcycles_per_s on fig3_seq; none on replay"},
    {"gpu.phase.sm_tick_frac", "fraction", "sim_kcycles_per_s on fig3_seq"},
    {"gpu.phase.noc_tick_frac", "fraction",
     "sim_kcycles_per_s on fig3_seq and of replay"},
    {"gpu.phase.mem_partition_tick_frac", "fraction",
     "sim_kcycles_per_s on fig3_seq and of replay"},
    {"gpu.phase.cta_admission_frac", "fraction",
     "sim_kcycles_per_s on fig3_seq"},
    {"sm.warp_instr", "count", "sim_cycles, vt_speedup_err on fig3_seq"},
    {"sm.ipc", "instr/cycle", "sim_cycles, vt_speedup_err on fig3_seq"},
    {"sm.stall.issued_frac", "fraction", "sim_cycles on fig3_seq"},
    {"sm.stall.mem_frac", "fraction", "sim_cycles on fig3_seq"},
    {"sm.stall.short_frac", "fraction", "sim_cycles on fig3_seq"},
    {"sm.stall.barrier_frac", "fraction", "sim_cycles on fig3_seq"},
    {"sm.stall.idle_frac", "fraction", "sim_cycles on fig3_seq"},
    {"sm.stall.swap_frac", "fraction", "sim_cycles on fig3_seq"},
    {"core.swap_outs", "count", "sim_cycles, vt_speedup_err on fig3_seq"},
    {"core.swaps_per_kinstr", "1/kinstr",
     "sim_cycles, vt_speedup_err on fig3_seq"},
    {"mem.record_ms", "ms", "set-up of replay; no workload gates it"},
    {"mem.replay_ms", "ms",
     "sim_kcycles_per_s of replay; no workload gates it"},
    {"mem.replay_ns_per_access", "ns",
     "sim_kcycles_per_s of replay; no workload gates it"},
    {"mem.l1_hit_rate", "fraction", "sim_cycles on fig3_seq"},
    {"mem.l2_hit_rate", "fraction", "sim_cycles on fig3_seq"},
    {"mem.dram_row_hit_rate", "fraction",
     "sim_cycles on fig3_seq"},
    {"mem.dram_bytes", "bytes", "sim_cycles on fig3_seq"},
    {"shard.launch_ms", "ms",
     "sim_kcycles_per_s of sharded runs; no workload gates it"},
    {"shard.cpu_per_wall", "fraction",
     "sim_kcycles_per_s, cpu_s of sharded runs; no workload gates it"},
    {"shard.imbalance_frac", "fraction",
     "sim_kcycles_per_s of sharded runs; no workload gates it"},
    {"sim.checkpoint_write_ms", "ms", "job_p90_ms on service_jobs"},
    {"sim.checkpoint_kb", "KiB", "job_p90_ms on service_jobs"},
    {"service.submit_rtt_ms", "ms",
     "job_p50_ms, job_p90_ms, jobs_per_s on service_jobs"},
    {"service.queue_wait_ms", "ms",
     "job_p50_ms, job_p90_ms, jobs_per_s on service_jobs"},
    {"service.run_ms", "ms",
     "job_p50_ms, job_p90_ms, jobs_per_s on service_jobs"},
    {"service.overhead_ms", "ms",
     "job_p50_ms, job_p90_ms, jobs_per_s on service_jobs"},
    {"service.preemptions", "count",
     "job_p50_ms, job_p90_ms, jobs_per_s on service_jobs"},
    {"service.preempt_to_resume_ms", "ms",
     "job_p90_ms, jobs_per_s on service_jobs"},
    {"service.worker_busy_frac", "fraction", "jobs_per_s on service_jobs"},
    {"trace.overhead_frac", "fraction", "none (traced vs plain rounds)"},
};

/** What a run measured and how many checked results it attempted. */
struct Outcome
{
    std::map<std::string, double> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    check(bool ok, const std::string &why)
    {
        ++attempted;
        if (!ok) {
            if (failed < 10)
                std::fprintf(stderr, "vtbench: FAILED %s\n", why.c_str());
            ++failed;
        }
    }
};

/** State shared by every workload. */
struct Context
{
    explicit Context(Options o) : opt(std::move(o)) {}

    /** Where spans go: the recorder when @p traced, else nowhere. */
    SpanRecorder *
    recorder(bool traced)
    {
        return traced ? &spans : nullptr;
    }

    /** True when @p stats match the digest of @p key. While blessing, a
     *  key not yet stored is blessed first, so digests are recorded and
     *  checked by the same code. */
    bool
    statsMatch(const DigestKey &key, const vtsim::KernelStats &stats,
               std::string *why)
    {
        if (opt.bless && !digests.contains(key))
            digests.bless(key, stats);
        return digests.check(key, stats, why);
    }

    Options opt;
    DigestStore digests;
    /** Spans of traced rounds, and of set-ups in a traced run. */
    SpanRecorder spans;
    Outcome out;
    /** Scales the gated host timings to a nominal host speed. */
    HostGauge gauge;
    /** Run ids: set-ups first, then rounds. */
    std::uint64_t nextRun = 0;
};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Simulated per-layer counters summed over @p runs. */
std::map<std::string, double>
simulatedLayers(const std::vector<vtsim::KernelStats> &runs)
{
    const auto total = [&runs](auto field) {
        double sum = 0.0;
        for (const vtsim::KernelStats &s : runs)
            sum += double(field(s));
        return sum;
    };
    const double instr = total([](auto &s) { return s.warpInstructions; });
    const double swaps = total([](auto &s) { return s.swapOuts; });
    const double issued = total([](auto &s) { return s.stalls.issued; });
    const double mem = total([](auto &s) { return s.stalls.memStall; });
    const double shrt = total([](auto &s) { return s.stalls.shortStall; });
    const double bar = total([](auto &s) { return s.stalls.barrierStall; });
    const double swap = total([](auto &s) { return s.stalls.swapStall; });
    const double idle = total([](auto &s) { return s.stalls.idle; });
    const double slots = issued + mem + shrt + bar + swap + idle;
    const double l1 = total([](auto &s) { return s.l1Hits; });
    const double l2 = total([](auto &s) { return s.l2Hits; });
    const double row = total([](auto &s) { return s.dramRowHits; });
    return {
        {"sm.warp_instr", instr},
        {"sm.ipc", ratio(instr, total([](auto &s) { return s.cycles; }))},
        {"sm.stall.issued_frac", ratio(issued, slots)},
        {"sm.stall.mem_frac", ratio(mem, slots)},
        {"sm.stall.short_frac", ratio(shrt, slots)},
        {"sm.stall.barrier_frac", ratio(bar, slots)},
        {"sm.stall.idle_frac", ratio(idle, slots)},
        {"sm.stall.swap_frac", ratio(swap, slots)},
        {"core.swap_outs", swaps},
        {"core.swaps_per_kinstr", ratio(swaps, instr / 1e3)},
        {"mem.l1_hit_rate",
         ratio(l1, l1 + total([](auto &s) { return s.l1Misses; }))},
        {"mem.l2_hit_rate",
         ratio(l2, l2 + total([](auto &s) { return s.l2Misses; }))},
        {"mem.dram_row_hit_rate",
         ratio(row, row + total([](auto &s) { return s.dramRowMisses; }))},
        {"mem.dram_bytes", total([](auto &s) { return s.dramBytes; })},
    };
}

/** Latency percentiles; a percentile with a thin tail is an error. */
void
latencyMetrics(const std::vector<double> &latencies_s,
               std::map<std::string, double> &m)
{
    for (const auto &[name, q] :
         {std::pair<const char *, double>{"job_p50_ms", 0.5},
          {"job_p90_ms", 0.9}}) {
        const auto p = tailPercentile(latencies_s, q);
        if (!p)
            throw std::runtime_error(std::string(name) +
                                     ": fewer than 10 samples beyond it");
        m[name] = p->value * 1e3;
        std::fprintf(stderr, "vtbench: %s over %zu runs (%zu beyond)\n",
                     name, p->samples, p->beyond);
    }
}

/** True while another set-up should be timed. */
bool
moreSetups(const std::vector<double> &times)
{
    double total = 0.0;
    for (double t : times)
        total += t;
    return times.size() < kSetups ||
           (total < kSetupBudget && times.size() < kMaxSetups);
}

/** The gated host timings before the gauge's scaling, for a reader who
 *  wants to see how much of a change the scaling accounts for. */
void
printUnscaled(double cpu_s, double sim_kcycles_per_s)
{
    std::fprintf(stderr,
                 "vtbench: unscaled cpu_s %.6g s, sim_kcycles_per_s %.6g\n",
                 cpu_s, sim_kcycles_per_s);
}

/** setup_s: the median set-up, scaled by the host's speed over the
 *  gauge chunks run after each set-up; the sample count and unscaled
 *  quartiles go to stderr. */
double
setupSeconds(const std::vector<double> &times,
             const std::vector<double> &chunks)
{
    const double speed = HostGauge::speed(median(chunks));
    std::fprintf(stderr,
                 "vtbench: setup_s over %zu set-ups (unscaled quartiles %.6g "
                 "%.6g %.6g s, speed %.4f)\n",
                 times.size(), quantile(times, 0.25), median(times),
                 quantile(times, 0.75), speed);
    return median(times) * speed;
}

/** True once the timed phase has run long and wide enough. */
bool
timedPhaseDone(const Context &ctx, double started, unsigned plain,
               unsigned traced, std::size_t latencies)
{
    return steadySeconds() - started >= ctx.opt.seconds &&
           plain >= kMinRounds && (!ctx.opt.trace || traced >= kMinRounds) &&
           (ctx.opt.trace || latencies >= kMinLatencies);
}

// --------------------------------------------------------------------
// fig3_seq, with the sharded and replay rounds of its traced run
// --------------------------------------------------------------------

enum class SeqMode { Exec, Sharded, Replay };

struct SeqItem
{
    RunSpec spec;
    vtsim::Workload *workload = nullptr;
    const vtsim::Kernel *kernel = nullptr;
    vtsim::Gpu *gpu = nullptr;
    std::string tracePath;
};

/** Everything a sequential workload sets up before its rounds. */
struct SeqRig
{
    std::vector<std::unique_ptr<vtsim::Workload>> workloads;
    std::vector<vtsim::Kernel> kernels;
    std::map<std::string, std::unique_ptr<vtsim::Gpu>> gpus;
    std::vector<SeqItem> items;
};

/** Record @p item's memory trace (replay set-up). */
void
recordTrace(Context &ctx, SeqItem &item)
{
    vtsim::Gpu &gpu = *item.gpu;
    gpu.reset();
    const vtsim::LaunchParams lp = item.workload->prepare(gpu.memory());
    gpu.enableMtraceRecord(item.tracePath);
    const vtsim::KernelStats stats = gpu.launch(*item.kernel, lp);
    std::string why = item.spec.kernel + " recording: wrong results";
    const bool ok = item.workload->verify(gpu.memory()) &&
                    ctx.statsMatch({item.spec, "exec"}, stats, &why);
    ctx.out.check(ok, why);
}

SeqRig
setupSeq(Context &ctx, SeqMode mode, std::uint64_t run,
         std::uint32_t scale = 1)
{
    SpanRecorder *rec = ctx.recorder(ctx.opt.trace);
    ScopedSpan setup(rec, "setup", run);
    SeqRig rig;
    const std::vector<std::string> names = mode == SeqMode::Replay
                                               ? kReplayKernels
                                               : vtsim::benchmarkNames();
    for (const std::string &name : names) {
        ScopedSpan s(rec, "workloads.build_kernel", run, setup.id());
        rig.workloads.push_back(vtsim::makeWorkload(name, scale));
        rig.kernels.push_back(rig.workloads.back()->buildKernel());
    }
    {
        ScopedSpan s(rec, "gpu.construct", run, setup.id());
        for (const std::string &m : kMachines)
            rig.gpus[m] = std::make_unique<vtsim::Gpu>(machineConfig(m));
    }
    for (std::size_t k = 0; k < names.size(); ++k) {
        for (const std::string &m : kMachines) {
            SeqItem item;
            item.spec = {names[k], m, scale};
            item.workload = rig.workloads[k].get();
            item.kernel = &rig.kernels[k];
            item.gpu = rig.gpus[m].get();
            item.tracePath =
                ctx.opt.out + "/" + names[k] + "." + m + ".mtrace";
            rig.items.push_back(std::move(item));
        }
    }
    if (mode == SeqMode::Replay) {
        for (SeqItem &item : rig.items) {
            ScopedSpan s(rec, "mem.record", run, setup.id());
            recordTrace(ctx, item);
        }
    }
    return rig;
}

/** One item of a round, timed from reset to verify. */
struct ItemRun
{
    vtsim::KernelStats stats;
    double wall = 0.0;
    double cpu = 0.0;
    double launchWall = 0.0;
    double launchCpu = 0.0;
    std::uint64_t ffCycles = 0;
    std::map<std::string, double> phaseSeconds;
    double profiledSeconds = 0.0;
};

ItemRun
runItem(Context &ctx, SeqMode mode, const SeqItem &item, bool traced,
        std::uint64_t run, std::int64_t parent)
{
    SpanRecorder *rec = ctx.recorder(traced);
    vtsim::Gpu &gpu = *item.gpu;
    ItemRun r;
    bool verified = true;
    const double w0 = steadySeconds();
    const double c0 = cpuNow();
    {
        ScopedSpan span(rec, "item", run, parent);
        {
            ScopedSpan s(rec, "gpu.reset", run, span.id());
            gpu.reset();
        }
        if (mode == SeqMode::Sharded)
            gpu.setSimThreads(kShardThreads);
        if (traced)
            gpu.enableProfiler();
        if (mode == SeqMode::Replay) {
            ScopedSpan s(rec, "mem.replay", run, span.id());
            const double lw = steadySeconds();
            r.stats = gpu.replayTrace(item.tracePath);
            r.launchWall = steadySeconds() - lw;
        } else {
            vtsim::LaunchParams lp;
            {
                ScopedSpan s(rec, "workloads.prepare", run, span.id());
                lp = item.workload->prepare(gpu.memory());
            }
            const std::uint64_t ff0 = gpu.fastForwardedCycles();
            {
                ScopedSpan s(rec, "gpu.launch", run, span.id());
                const double lw = steadySeconds();
                const double lc = cpuNow();
                r.stats = gpu.launch(*item.kernel, lp);
                r.launchCpu = cpuNow() - lc;
                r.launchWall = steadySeconds() - lw;
            }
            r.ffCycles = gpu.fastForwardedCycles() - ff0;
            ScopedSpan s(rec, "workloads.verify", run, span.id());
            verified = item.workload->verify(gpu.memory());
        }
    }
    r.wall = steadySeconds() - w0;
    r.cpu = cpuNow() - c0;
    if (const auto *prof = gpu.profiler()) {
        for (const auto &b : prof->report())
            r.phaseSeconds[b.name] += b.seconds;
        r.profiledSeconds = prof->runSeconds();
    }
    const DigestKey key{item.spec,
                        mode == SeqMode::Replay ? "replay" : "exec"};
    std::string why = key.str() + ": functional results wrong";
    ctx.out.check(verified && ctx.statsMatch(key, r.stats, &why), why);
    return r;
}

/** What extraRounds measured. */
struct ExtraRounds
{
    std::vector<std::uint64_t> setupRuns;
    std::vector<std::uint64_t> runs;
    std::vector<ItemRun> items;
    double accesses = 0.0; ///< Memory accesses replayed (Replay only).
};

/**
 * kExtraRounds traced rounds of @p mode's runs on a fresh set-up, for
 * a traced fig3_seq run: the shard pool (Sharded) and the memory
 * hierarchy on its own (Replay, whose set-up records the traces).
 * Every run is checked against the digests. They are not workloads of
 * their own because their host time spreads too widely to gate a
 * change (NOTES.md, "Measured spread").
 */
ExtraRounds
extraRounds(Context &ctx, SeqMode mode)
{
    ExtraRounds out;
    out.setupRuns.push_back(ctx.nextRun);
    const SeqRig rig = setupSeq(ctx, mode, ctx.nextRun++);
    for (unsigned r = 0; r < kExtraRounds; ++r) {
        out.runs.push_back(ctx.nextRun++);
        ScopedSpan round(&ctx.spans, "round", out.runs.back());
        for (std::size_t i :
             permutation(rig.items.size(), ctx.opt.seed, r)) {
            out.items.push_back(runItem(ctx, mode, rig.items[i], true,
                                        out.runs.back(), round.id()));
        }
    }
    if (mode == SeqMode::Replay) {
        for (const SeqItem &item : rig.items) {
            vtsim::MtraceReader reader;
            reader.load(item.tracePath);
            out.accesses += double(reader.totalAccesses()) * kExtraRounds;
        }
    }
    return out;
}

/** Per-layer metrics of the shard pool and of trace replay. */
void
extraLayers(Context &ctx, std::map<std::string, double> &m)
{
    const auto self_ms = [&ctx](const std::vector<std::uint64_t> &runs,
                                const char *name, double per) {
        const auto self = ctx.spans.selfTimeByName(runs);
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / per * 1e3;
    };
    const ExtraRounds shard = extraRounds(ctx, SeqMode::Sharded);
    double launch_cpu = 0.0, launch_wall = 0.0;
    std::map<std::string, double> phases;
    for (const ItemRun &ir : shard.items) {
        launch_cpu += ir.launchCpu;
        launch_wall += ir.launchWall;
        for (const auto &[name, sec] : ir.phaseSeconds)
            phases[name] += sec;
    }
    m["shard.launch_ms"] = self_ms(shard.runs, "gpu.launch", kExtraRounds);
    m["shard.cpu_per_wall"] = ratio(launch_cpu, launch_wall);
    m["shard.imbalance_frac"] =
        ratio(phases["shard_imbalance"], phases["shard_compute"] +
                                             phases["shard_imbalance"] +
                                             phases["epoch_merge"]);

    const ExtraRounds replay = extraRounds(ctx, SeqMode::Replay);
    double replay_wall = 0.0;
    for (const ItemRun &ir : replay.items)
        replay_wall += ir.launchWall;
    m["mem.record_ms"] = self_ms(replay.setupRuns, "mem.record", 1.0);
    m["mem.replay_ms"] = self_ms(replay.runs, "mem.replay", kExtraRounds);
    m["mem.replay_ns_per_access"] =
        ratio(replay_wall, replay.accesses) * 1e9;
}

void
runFig3(Context &ctx)
{
    const SeqMode mode = SeqMode::Exec;
    std::vector<double> setup_times;
    std::vector<std::uint64_t> setup_runs;
    std::vector<double> setup_chunks;
    SeqRig rig;
    while (moreSetups(setup_times)) {
        rig = SeqRig(); // Tear the previous set-up down, untimed.
        setup_runs.push_back(ctx.nextRun);
        const double t0 = steadySeconds();
        rig = setupSeq(ctx, mode, ctx.nextRun++);
        setup_times.push_back(steadySeconds() - t0);
        setup_chunks.push_back(ctx.gauge.chunk());
    }
    const std::size_t n = rig.items.size();
    // [traced][item] -> samples; index 0 = plain rounds.
    std::vector<std::vector<double>> wall[2], cpu[2], raw_wall[2], raw_cpu[2];
    for (int t = 0; t < 2; ++t) {
        wall[t].assign(n, {});
        cpu[t].assign(n, {});
        raw_wall[t].assign(n, {});
        raw_cpu[t].assign(n, {});
    }
    std::vector<double> latencies;
    std::vector<vtsim::KernelStats> last(n);
    std::vector<vtsim::KernelStats> traced_stats;
    double ff_cycles = 0.0, traced_cycles = 0.0;
    double traced_round_wall = 0.0;
    double launch_wall[2] = {0.0, 0.0}; // base, vt
    double warp_instr[2] = {0.0, 0.0};
    std::map<std::string, double> phases;
    double profiled = 0.0;
    std::vector<std::uint64_t> traced_runs;
    unsigned rounds[2] = {0, 0};

    const double started = steadySeconds();
    for (std::uint64_t r = 0;; ++r) {
        const bool warmup = r == 0;
        const bool traced = ctx.opt.trace && !warmup && r % 2 == 0;
        const std::uint64_t run = ctx.nextRun++;
        if (traced)
            traced_runs.push_back(run);
        SpanRecorder *rec = ctx.recorder(traced);
        const double rw0 = steadySeconds();
        ScopedSpan round(rec, "round", run);
        // Each run is scaled by the host's speed over the gauge chunks
        // on either side of it.
        double before = ctx.gauge.chunk();
        for (std::size_t i : permutation(n, ctx.opt.seed, r)) {
            const ItemRun ir =
                runItem(ctx, mode, rig.items[i], traced, run, round.id());
            const double after = ctx.gauge.chunk();
            const double speed = HostGauge::speed((before + after) / 2.0);
            before = after;
            last[i] = ir.stats;
            if (warmup)
                continue;
            raw_wall[traced][i].push_back(ir.wall);
            raw_cpu[traced][i].push_back(ir.cpu);
            wall[traced][i].push_back(ir.wall * speed);
            cpu[traced][i].push_back(ir.cpu * speed);
            if (!traced) {
                latencies.push_back(ir.wall * speed);
                continue;
            }
            traced_round_wall += ir.wall;
            traced_stats.push_back(ir.stats);
            ff_cycles += double(ir.ffCycles);
            traced_cycles += double(ir.stats.cycles);
            const int vt = rig.items[i].spec.machine == "vt";
            launch_wall[vt] += ir.launchWall;
            warp_instr[vt] += double(ir.stats.warpInstructions);
            for (const auto &[name, sec] : ir.phaseSeconds)
                phases[name] += sec;
            profiled += ir.profiledSeconds;
        }
        std::fprintf(stderr, "vtbench: round %llu%s %.4f s\n",
                     (unsigned long long)r,
                     warmup ? " (warm-up)" : traced ? " (traced)" : "",
                     steadySeconds() - rw0);
        if (warmup)
            continue;
        ++rounds[traced];
        if (timedPhaseDone(ctx, started, rounds[0], rounds[1],
                           latencies.size()))
            break;
    }

    // Sum over items of each item's median over rounds.
    const auto sum_medians = [&](const std::vector<std::vector<double>> &v) {
        double sum = 0.0;
        for (const auto &samples : v)
            sum += median(samples);
        return sum;
    };
    std::vector<CycleResult> cycles;
    double sim_cycles = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        cycles.push_back(cycleResult(rig.items[i].spec, last[i]));
        sim_cycles += double(last[i].cycles);
    }
    auto &m = ctx.out.metrics;
    if (!ctx.opt.trace) {
        const double round_wall = sum_medians(wall[0]);
        printUnscaled(sum_medians(raw_cpu[0]),
                      sim_cycles / sum_medians(raw_wall[0]) / 1e3);
        m["setup_s"] = setupSeconds(setup_times, setup_chunks);
        m["cpu_s"] = sum_medians(cpu[0]);
        m["sim_kcycles_per_s"] = sim_cycles / round_wall / 1e3;
        m["jobs_per_s"] = double(n) / round_wall;
        latencyMetrics(latencies, m);
        m["sim_cycles"] = sim_cycles;
        m["vt_speedup_err"] = vtSpeedupErr(cycles);
        return;
    }

    // The figures behind the kernel lists of the replay rounds and the
    // service (NOTES.md): each run's memory-stall share, cycles and host time.
    for (std::size_t i = 0; i < n; ++i) {
        std::fprintf(stderr,
                     "vtbench: item %s mem_frac %.3f cycles %llu wall_ms "
                     "%.2f\n",
                     DigestKey{rig.items[i].spec}.str().c_str(),
                     simulatedLayers({last[i]})["sm.stall.mem_frac"],
                     (unsigned long long)last[i].cycles,
                     median(wall[0][i]) * 1e3);
    }
    const double nt = rounds[1];
    const auto setup_self = ctx.spans.selfTimeByName(setup_runs);
    const auto self = ctx.spans.selfTimeByName(traced_runs);
    const auto per_setup_ms = [&](const char *name) {
        const auto it = setup_self.find(name);
        return it == setup_self.end()
                   ? 0.0
                   : it->second / double(setup_runs.size()) * 1e3;
    };
    const auto per_round_ms = [&](const char *name) {
        const auto it = self.find(name);
        return it == self.end() ? 0.0 : it->second / nt * 1e3;
    };
    const auto phase_frac = [&](const char *bucket) {
        const auto it = phases.find(bucket);
        return it == phases.end() ? 0.0 : ratio(it->second, profiled);
    };
    m.merge(simulatedLayers(traced_stats));
    m["gpu.ff_frac"] = ratio(ff_cycles, traced_cycles);
    // Per-round totals, not sums over the traced rounds.
    for (const char *count : {"sm.warp_instr", "core.swap_outs",
                              "mem.dram_bytes"})
        m[count] /= nt;
    m["workloads.build_kernel_ms"] = per_setup_ms("workloads.build_kernel");
    m["gpu.construct_ms"] = per_setup_ms("gpu.construct");
    m["workloads.prepare_ms"] = per_round_ms("workloads.prepare");
    m["workloads.verify_ms"] = per_round_ms("workloads.verify");
    m["gpu.reset_ms"] = per_round_ms("gpu.reset");
    m["gpu.launch_ms"] = per_round_ms("gpu.launch");
    m["gpu.launch_share"] =
        ratio(per_round_ms("gpu.launch") * nt / 1e3, traced_round_wall);
    m["gpu.ns_per_warp_instr.base"] =
        ratio(launch_wall[0], warp_instr[0]) * 1e9;
    m["gpu.ns_per_warp_instr.vt"] =
        ratio(launch_wall[1], warp_instr[1]) * 1e9;
    m["gpu.phase.sm_tick_frac"] = phase_frac("sm_tick");
    m["gpu.phase.noc_tick_frac"] = phase_frac("noc_tick");
    m["gpu.phase.mem_partition_tick_frac"] =
        phase_frac("mem_partition_tick");
    m["gpu.phase.cta_admission_frac"] = phase_frac("cta_admission");
    extraLayers(ctx, m);
    m["trace.overhead_frac"] =
        sum_medians(wall[1]) / sum_medians(wall[0]) - 1.0;
}

// --------------------------------------------------------------------
// service_jobs: a closed loop of preemptible jobs through vtsimd
// --------------------------------------------------------------------

/** Let the calling thread, and the threads it starts later, run only on
 *  @p cpus. */
void
pinTo(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof(set), &set) != 0)
        throw std::runtime_error("sched_setaffinity failed");
}

/** The CPUs the calling thread may run on. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        throw std::runtime_error("sched_getaffinity failed");
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set))
            cpus.push_back(cpu);
    }
    return cpus;
}

/**
 * Run @p per_cpu gauge chunks on each of @p cpus in turn, then let the
 * calling thread run where it could before. The slowdown is per core,
 * so the gauge must run on the cores the service's workers use.
 */
std::vector<double>
gaugeOn(HostGauge &gauge, const std::vector<int> &cpus, unsigned per_cpu)
{
    const std::vector<int> before = allowedCpus();
    std::vector<double> chunks;
    for (int cpu : cpus) {
        pinTo({cpu});
        for (unsigned k = 0; k < per_cpu; ++k)
            chunks.push_back(gauge.chunk());
    }
    pinTo(before);
    return chunks;
}

/** An in-process vtsimd: service, daemon, serve thread, clients. */
struct ServiceRig
{
    std::unique_ptr<svc::JobService> service;
    std::unique_ptr<svc::Daemon> daemon;
    std::thread serve;
    std::vector<std::unique_ptr<svc::Client>> clients;
    std::string socket;

    ServiceRig() = default;
    ServiceRig(const ServiceRig &) = delete;
    ServiceRig &operator=(const ServiceRig &) = delete;
    ~ServiceRig() { stop(); }

    void
    stop()
    {
        clients.clear();
        if (daemon) {
            daemon->requestStop();
            if (serve.joinable())
                serve.join();
            daemon.reset();
        }
        if (service)
            service->shutdown();
        std::error_code ec;
        if (!socket.empty())
            fs::remove(socket, ec);
    }
};

std::unique_ptr<ServiceRig>
startService(const Context &ctx, const std::string &tag,
             const std::string &evlog, const std::vector<int> &worker_cpus)
{
    auto rig = std::make_unique<ServiceRig>();
    svc::ServiceConfig cfg;
    cfg.workers = kServiceWorkers;
    // High-priority jobs run without a cadence; low-priority ones opt
    // in per job (checkpoint_every), which is what makes them
    // preemptible.
    cfg.preemptEvery = 0;
    cfg.spoolDir = ctx.opt.out + "/spool-" + tag;
    cfg.eventLogPath = evlog;
    // The workers start with the service and keep the CPUs they start
    // on; the daemon's and the clients' threads may run anywhere.
    const std::vector<int> all = allowedCpus();
    pinTo(worker_cpus);
    rig->service = std::make_unique<svc::JobService>(cfg);
    pinTo(all);
    rig->socket = ctx.opt.out + "/vtsimd-" + tag + ".sock";
    std::error_code ec;
    fs::remove(rig->socket, ec);
    rig->daemon = std::make_unique<svc::Daemon>(*rig->service, rig->socket);
    rig->daemon->start();
    rig->serve = std::thread([d = rig->daemon.get()] { d->serve(); });
    for (unsigned c = 0; c < kServiceClients; ++c) {
        rig->clients.push_back(std::make_unique<svc::Client>(rig->socket));
        const svc::Json pong = rig->clients.back()->request(
            svc::Json::parse(R"({"op":"ping"})"));
        if (!pong.find("ok") || !pong.find("ok")->asBool())
            throw std::runtime_error("vtsimd did not answer ping");
    }
    return rig;
}

struct JobSample
{
    RunSpec spec;
    double latency = 0.0; ///< Submit to result, seconds.
    double submitRtt = 0.0;
    double waitSeconds = 0.0;
    double runSeconds = 0.0;
    std::uint64_t preemptions = 0;
    vtsim::KernelStats stats;
    bool ok = false;
    std::string why;
};

/** Submits and collects jobs on one client connection, timing each
 *  and checking its stats against the digests. */
struct JobCalls
{
    svc::Client &client;
    const DigestStore &digests;
    SpanRecorder *rec = nullptr;
    std::uint64_t run = 0;
    std::int64_t parent = -1;

    std::int64_t
    submit(const RunSpec &spec, bool high, JobSample &sample) const
    {
        svc::Json::Object req;
        req["op"] = svc::Json("submit");
        req["workload"] = svc::Json(spec.kernel);
        req["scale"] = svc::Json(spec.scale);
        req["priority"] = svc::Json(high ? "high" : "low");
        if (spec.machine == "vt")
            req["config"] = svc::Json(
                svc::Json::Object{{"vt_enabled", svc::Json(true)}});
        if (!high)
            req["checkpoint_every"] = svc::Json(kLowCadence);
        sample.spec = spec;
        ScopedSpan s(rec, "service.submit", run, parent);
        const double t0 = steadySeconds();
        const svc::Json reply = client.request(svc::Json(std::move(req)));
        sample.submitRtt = steadySeconds() - t0;
        const svc::Json *job = reply.find("job");
        if (!job)
            throw std::runtime_error("submit refused: " + reply.dump());
        return job->asInt();
    }

    void
    collect(std::int64_t id, double submitted, JobSample &sample) const
    {
        svc::Json::Object req;
        req["op"] = svc::Json("wait");
        req["job"] = svc::Json(id);
        svc::Json reply;
        {
            ScopedSpan s(rec, "service.wait", run, parent);
            reply = client.request(svc::Json(std::move(req)));
        }
        sample.latency = steadySeconds() - submitted;
        const svc::Json *state = reply.find("state");
        const svc::Json *verified = reply.find("verified");
        const svc::Json *stats = reply.find("stats");
        const DigestKey key{sample.spec, "exec"};
        sample.why = key.str() + ": job " + std::to_string(id) +
                     " ended " + reply.dump().substr(0, 200);
        if (!state || state->asString() != "done" || !verified ||
            !verified->asBool() || !stats)
            return;
        const auto field = [&reply](const char *name) -> const svc::Json & {
            const svc::Json *v = reply.find(name);
            if (!v)
                throw std::runtime_error(std::string("reply lacks ") + name);
            return *v;
        };
        sample.stats = svc::kernelStatsFromJson(*stats);
        sample.waitSeconds = field("wait_seconds").asDouble();
        sample.runSeconds = field("wall_seconds").asDouble();
        sample.preemptions = std::uint64_t(field("preemptions").asInt());
        sample.ok = digests.check(key, sample.stats, &sample.why);
    }

    /** Submit a high-priority job and wait for it; never throws. */
    JobSample
    runHigh(const RunSpec &spec) const
    {
        JobSample sample;
        try {
            const double t0 = steadySeconds();
            collect(submit(spec, true, sample), t0, sample);
        } catch (const std::exception &e) {
            sample.spec = spec;
            sample.why = spec.kernel + ": " + e.what();
        }
        return sample;
    }
};

/** One client's episodes of a round; never throws (failures become
 *  failed samples). */
void
runEpisodes(const JobCalls &calls, const std::vector<Episode> &episodes,
            std::vector<JobSample> &out)
{
    for (const Episode &ep : episodes) {
        JobSample low;
        try {
            const double low_submitted = steadySeconds();
            const std::int64_t low_id = calls.submit(ep.low, false, low);
            for (const RunSpec &spec : ep.high)
                out.push_back(calls.runHigh(spec));
            calls.collect(low_id, low_submitted, low);
        } catch (const std::exception &e) {
            low.spec = ep.low;
            low.why = ep.low.kernel + ": " + e.what();
        }
        out.push_back(std::move(low));
    }
}

std::vector<RunSpec>
serviceMix(const std::vector<std::string> &kernels, std::uint32_t scale)
{
    std::vector<RunSpec> mix;
    for (const std::string &k : kernels) {
        for (const std::string &m : kMachines)
            mix.push_back({k, m, scale});
    }
    return mix;
}

/** Mean checkpoint image size (KiB) over the event log's parks. */
double
meanCheckpointKb(const std::string &evlog)
{
    std::ifstream is(evlog);
    std::string line;
    double bytes = 0.0;
    double count = 0.0;
    while (std::getline(is, line)) {
        const svc::Json ev = svc::Json::parse(line);
        const svc::Json *kind = ev.find("event");
        if (kind && kind->asString() == "checkpoint") {
            bytes += ev.find("bytes")->asDouble();
            count += 1.0;
        }
    }
    return ratio(bytes, count) / 1024.0;
}

double
distMeanMs(const svc::JobService &service, const std::string &path)
{
    for (const auto &d : service.telemetryRegistry().dists()) {
        if (d.path == path)
            return d.stat->mean() * 1e3;
    }
    throw std::runtime_error("service stat '" + path + "' missing");
}

void
runServiceWorkload(Context &ctx)
{
    // The workers run only on the first kServiceWorkers CPUs, and the
    // gauge runs on each of those CPUs: it measures the cores that do
    // the work.
    std::vector<int> cpus = allowedCpus();
    cpus.resize(std::min<std::size_t>(cpus.size(), kServiceWorkers));
    std::vector<double> setup_times, setup_chunks;
    std::unique_ptr<ServiceRig> plain;
    while (moreSetups(setup_times)) {
        plain.reset();
        ScopedSpan span(ctx.recorder(ctx.opt.trace), "setup", ctx.nextRun++);
        const double t0 = steadySeconds();
        plain = startService(ctx, "plain", "", cpus);
        // Set-up ends when the fresh daemon has served its first jobs,
        // so it counts their first-use costs and not only thread
        // start-up and socket wake-ups.
        for (const auto &client : plain->clients) {
            for (const RunSpec &spec : kSetupJobs) {
                const JobSample job =
                    JobCalls{*client, ctx.digests}.runHigh(spec);
                ctx.out.check(job.ok, job.why);
            }
        }
        setup_times.push_back(steadySeconds() - t0);
        for (double c : gaugeOn(ctx.gauge, cpus, 1))
            setup_chunks.push_back(c);
    }
    // A traced run alternates rounds between the plain service and one
    // with its event log on, so trace.overhead_frac covers both.
    const std::string evlog = ctx.opt.out + "/vtsimd-evlog.jsonl";
    std::unique_ptr<ServiceRig> traced_rig;
    if (ctx.opt.trace)
        traced_rig = startService(ctx, "traced", evlog, cpus);

    const std::vector<RunSpec> low = serviceMix(kLowKernels, 1);
    const std::vector<RunSpec> high =
        serviceMix(vtsim::benchmarkNames(), 0);

    // Per round, scaled by the gauge's speed and as measured.
    std::vector<double> round_wall[2], round_cpu[2], raw_wall[2], raw_cpu[2];
    std::vector<double> latencies;
    std::vector<JobSample> traced_jobs;
    std::vector<JobSample> last_round;
    std::vector<std::uint64_t> traced_runs;

    const double started = steadySeconds();
    for (std::uint64_t r = 0;; ++r) {
        const bool warmup = r == 0;
        const bool traced = ctx.opt.trace && !warmup && r % 2 == 0;
        const std::uint64_t run = ctx.nextRun++;
        if (traced)
            traced_runs.push_back(run);
        SpanRecorder *rec = ctx.recorder(traced);
        ServiceRig &rig = traced ? *traced_rig : *plain;
        const auto plan =
            serviceRound(low, high, kServiceClients, ctx.opt.seed, r);
        std::vector<std::vector<JobSample>> samples(kServiceClients);

        const double w0 = steadySeconds();
        const double c0 = cpuNow();
        {
            ScopedSpan round(rec, "round", run);
            std::vector<std::thread> clients;
            for (unsigned c = 0; c < kServiceClients; ++c) {
                clients.emplace_back([&, c] {
                    ScopedSpan client(rec, "client", run, round.id());
                    runEpisodes({*rig.clients[c], ctx.digests, rec, run,
                                 client.id()},
                                plan[c], samples[c]);
                });
            }
            for (std::thread &t : clients)
                t.join();
        }
        const double wall_s = steadySeconds() - w0;
        const double cpu_s = cpuNow() - c0;
        // The gauge runs between rounds, while the service is idle.
        const double speed = HostGauge::speed(
            median(gaugeOn(ctx.gauge, cpus, kGaugeChunksPerCpu)));
        const double wall = wall_s * speed;
        const double cpu = cpu_s * speed;
        std::fprintf(stderr, "vtbench: round %llu%s %.4f s, speed %.4f\n",
                     (unsigned long long)r,
                     warmup ? " (warm-up)" : traced ? " (traced)" : "",
                     wall_s, speed);

        last_round.clear();
        for (auto &client : samples) {
            for (JobSample &s : client) {
                ctx.out.check(s.ok, s.why);
                if (!warmup && !traced)
                    latencies.push_back(s.latency * speed);
                last_round.push_back(s);
                if (traced)
                    traced_jobs.push_back(std::move(s));
            }
        }
        if (warmup)
            continue;
        round_wall[traced].push_back(wall);
        round_cpu[traced].push_back(cpu);
        raw_wall[traced].push_back(wall_s);
        raw_cpu[traced].push_back(cpu_s);
        if (timedPhaseDone(ctx, started, round_wall[0].size(),
                           round_wall[1].size(), latencies.size()))
            break;
    }

    std::vector<vtsim::KernelStats> round_stats;
    std::vector<CycleResult> cycles;
    double sim_cycles = 0.0;
    for (const JobSample &s : last_round) {
        round_stats.push_back(s.stats);
        cycles.push_back(cycleResult(s.spec, s.stats));
        sim_cycles += double(s.stats.cycles);
    }
    const double jobs = double(last_round.size());
    auto &m = ctx.out.metrics;
    if (!ctx.opt.trace) {
        const double wall = median(round_wall[0]);
        printUnscaled(median(raw_cpu[0]),
                      sim_cycles / median(raw_wall[0]) / 1e3);
        m["setup_s"] = setupSeconds(setup_times, setup_chunks);
        m["cpu_s"] = median(round_cpu[0]);
        m["sim_kcycles_per_s"] = sim_cycles / wall / 1e3;
        m["jobs_per_s"] = jobs / wall;
        latencyMetrics(latencies, m);
        m["sim_cycles"] = sim_cycles;
        m["vt_speedup_err"] = vtSpeedupErr(cycles);
        return;
    }

    m.merge(simulatedLayers(round_stats));
    std::vector<double> rtt, wait, run_s, overhead;
    double busy = 0.0, preemptions = 0.0;
    for (const JobSample &s : traced_jobs) {
        rtt.push_back(s.submitRtt);
        wait.push_back(s.waitSeconds);
        run_s.push_back(s.runSeconds);
        overhead.push_back(s.latency - s.waitSeconds - s.runSeconds);
        busy += s.runSeconds;
        preemptions += double(s.preemptions);
    }
    double traced_wall = 0.0;
    for (double w : raw_wall[1])
        traced_wall += w;
    const double nt = double(round_wall[1].size());
    m["service.submit_rtt_ms"] = median(rtt) * 1e3;
    m["service.queue_wait_ms"] = median(wait) * 1e3;
    m["service.run_ms"] = median(run_s) * 1e3;
    m["service.overhead_ms"] = median(overhead) * 1e3;
    m["service.preemptions"] = preemptions / nt;
    m["service.worker_busy_frac"] =
        ratio(busy, traced_wall * kServiceWorkers);
    traced_rig->stop();
    m["service.preempt_to_resume_ms"] = distMeanMs(
        *traced_rig->service, "service.preempt_to_resume_seconds");
    m["sim.checkpoint_write_ms"] = distMeanMs(
        *traced_rig->service, "service.checkpoint_write_seconds");
    m["sim.checkpoint_kb"] = meanCheckpointKb(evlog);
    m["trace.overhead_frac"] =
        median(round_wall[1]) / median(round_wall[0]) - 1.0;
}

// --------------------------------------------------------------------
// Blessing the expected digests
// --------------------------------------------------------------------

/**
 * Run every spec the workloads check through the code that checks it,
 * blessing each digest on its first run: exec at scale 1 (fig3), exec
 * at scale 0 (the service's high-priority jobs), then replay, whose
 * set-up records the traces against the exec digests just blessed.
 * Every spec runs twice, so the second run checks the first.
 */
void
bless(Context &ctx)
{
    for (const auto &[mode, scale] :
         {std::pair{SeqMode::Exec, 1u}, {SeqMode::Exec, 0u},
          {SeqMode::Replay, 1u}}) {
        const SeqRig rig = setupSeq(ctx, mode, ctx.nextRun++, scale);
        for (int pass = 0; pass < 2; ++pass) {
            for (const SeqItem &item : rig.items)
                runItem(ctx, mode, item, false, ctx.nextRun++, -1);
        }
    }
    if (ctx.out.failed)
        throw std::runtime_error("blessing runs failed; digests unchanged");
    ctx.digests.save(ctx.opt.digests);
    std::fprintf(stderr, "vtbench: blessed %zu digests into %s\n",
                 ctx.digests.size(), ctx.opt.digests.c_str());
}

// --------------------------------------------------------------------
// Output
// --------------------------------------------------------------------

std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

/** The host's speed over the run, as quartiles of the gauge's chunk
 *  times, and the load average: they tell host drift from a program
 *  change. */
void
printHostDrift(const std::vector<double> &chunks)
{
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1.0;
    std::printf("host_drift {\"gauge_chunk_ms\":[%s,%s,%s],"
                "\"loadavg\":[%s,%s,%s],\"nproc\":%u}\n",
                number(quantile(chunks, 0.25) * 1e3).c_str(),
                number(median(chunks) * 1e3).c_str(),
                number(quantile(chunks, 0.75) * 1e3).c_str(),
                number(load[0]).c_str(),
                number(load[1]).c_str(), number(load[2]).c_str(),
                std::thread::hardware_concurrency());
}

void
printResult(const Context &ctx)
{
    const Outcome &out = ctx.out;
    std::string json = "{\"correct\": ";
    json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    const std::span<const MetricDef> defs =
        ctx.opt.trace ? std::span<const MetricDef>(kPerLayer)
                      : std::span<const MetricDef>(kEndToEnd);
    for (const MetricDef &d : defs) {
        const auto it = out.metrics.find(d.name);
        const double v = it == out.metrics.end() ? 0.0 : it->second;
        if (ctx.opt.trace) {
            std::printf("layer %-36s %14s %-10s moves %s\n", d.name,
                        number(v).c_str(), d.unit, d.moves);
        }
        json += first ? "" : ", ";
        first = false;
        json += "\"" + std::string(d.name) + "\": {\"value\": " + number(v) +
                ", \"unit\": \"" + d.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload")
            opt.workload = value();
        else if (arg == "--seed")
            opt.seed = std::stoull(value());
        else if (arg == "--seconds")
            opt.seconds = std::stod(value());
        else if (arg == "--trace")
            opt.trace = value() == "1";
        else if (arg == "--digests")
            opt.digests = value();
        else if (arg == "--out")
            opt.out = value();
        else if (arg == "--bless")
            opt.bless = true;
        else
            throw std::invalid_argument("unknown argument " + arg);
    }
    if (opt.digests.empty() || opt.out.empty())
        throw std::invalid_argument("--digests and --out are required");
    return opt;
}

int
runMain(int argc, char **argv)
{
    Context ctx(parseArgs(argc, argv));
    fs::create_directories(ctx.opt.out);
    if (ctx.opt.bless) {
        bless(ctx);
        return 0;
    }
    ctx.digests.load(ctx.opt.digests);

    const std::string &w = ctx.opt.workload;
    if (w == "fig3_seq")
        runFig3(ctx);
    else if (w == "service_jobs")
        runServiceWorkload(ctx);
    else
        throw std::invalid_argument("unknown workload '" + w + "'");

    auto &m = ctx.out.metrics;
    if (!ctx.opt.trace) {
        m["peak_rss_mb"] = peakRssMb();
        m["ok_frac"] = ratio(double(ctx.out.attempted - ctx.out.failed),
                             double(ctx.out.attempted));
    } else {
        const std::string path = ctx.opt.out + "/spans-" + w + "-seed" +
                                 std::to_string(ctx.opt.seed) + ".jsonl";
        std::ofstream os(path, std::ios::trunc);
        ctx.spans.write(os);
        std::fprintf(stderr, "vtbench: %zu spans written to %s\n",
                     ctx.spans.spans().size(), path.c_str());
    }
    printHostDrift(ctx.gauge.chunks());
    printResult(ctx);
    // A wrong result fails the run, whatever the metrics say.
    return ctx.out.failed == 0 && ctx.out.attempted > 0 ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runMain(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vtbench: %s\n", e.what());
        return 1;
    }
}
