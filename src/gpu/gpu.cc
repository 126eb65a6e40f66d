#include "gpu/gpu.hh"

#include <algorithm>
#include <cstring>
#include <iostream>
#include <iterator>
#include <queue>
#include <thread>
#include <tuple>
#include <utility>

#include "common/aggregate_arity.hh"
#include "common/log.hh"
#include "common/trace.hh"
#include "config/sim_mode.hh"
#include "isa/assembler.hh"

namespace vtsim {

namespace {

/** Placeholder bytes configFields() visits for retired knobs. */
constexpr std::size_t retiredConfigFields = 3;

/**
 * GpuConfig goes into the "conf" section field by field: the struct
 * mixes bools and doubles with wider fields, so a raw-byte copy would
 * leak indeterminate padding into the checkpoint and break
 * byte-determinism. The static_assert below configFieldVisits() forces
 * this list to be updated whenever a field is added or removed.
 */
template <typename Archive, typename Config>
constexpr void
configFields(Archive &&field, Config &cfg)
{
    field(cfg.numSms);
    field(cfg.numMemPartitions);
    field(cfg.maxWarpsPerSm);
    field(cfg.maxCtasPerSm);
    field(cfg.maxThreadsPerSm);
    field(cfg.registersPerSm);
    field(cfg.sharedMemPerSm);
    field(cfg.sharedMemBanks);
    field(cfg.regAllocGranularity);
    field(cfg.sharedAllocGranularity);
    field(cfg.numSchedulers);
    field(cfg.issueWidth);
    field(cfg.schedulerPolicy);
    field(cfg.aluLatency);
    field(cfg.sfuLatency);
    field(cfg.aluThroughputPerSm);
    field(cfg.sfuThroughputPerSm);
    field(cfg.ldstThroughputPerSm);
    field(cfg.l1Size);
    field(cfg.l1Assoc);
    field(cfg.l1LineSize);
    field(cfg.l1Mshrs);
    field(cfg.l1MshrTargets);
    field(cfg.l1HitLatency);
    field(cfg.l1BypassGlobalLoads);
    field(cfg.sharedMemLatency);
    field(cfg.nocLatency);
    field(cfg.nocFlitsPerCycle);
    field(cfg.l2SlicePerPartition);
    field(cfg.l2Assoc);
    field(cfg.l2LineSize);
    field(cfg.l2Mshrs);
    field(cfg.l2MshrTargets);
    field(cfg.l2HitLatency);
    field(cfg.l2PortsPerCycle);
    field(cfg.l2WriteBack);
    field(cfg.dramBanksPerPartition);
    field(cfg.dramRowBufferSize);
    field(cfg.dramRowHitLatency);
    field(cfg.dramRowMissLatency);
    field(cfg.dramBytesPerCycle);
    field(cfg.dramSchedWindow);
    field(cfg.vtEnabled);
    field(cfg.vtMaxVirtualCtasPerSm);
    field(cfg.vtSwapOutLatency);
    field(cfg.vtSwapInLatency);
    field(cfg.vtSwapTrigger);
    field(cfg.vtSwapInPolicy);
    field(cfg.vtStallThreshold);
    field(cfg.schedLimitMultiplier);
    field(cfg.throttleEnabled);
    field(cfg.throttleEpochCycles);
    field(cfg.throttleHighWater);
    field(cfg.throttleLowWater);
    field(cfg.maxCycles);
    field(cfg.fastForwardEnabled);
    // Retired knobs keep their bytes, so images stay byte-identical and
    // older images restorable: the incremental ready-set toggle here,
    // the interpreter toggle and its oracle after shardOracle. Save
    // writes the values every default build wrote (1, 1, 0); restore
    // reads them into these temporaries and discards them.
    bool retired_ready_sets = true;
    field(retired_ready_sets);
    field(cfg.readySetOracle);
    field(cfg.horizonOracle);
    field(cfg.shardOracle);
    bool retired_interpreter[2] = {true, false};
    field(retired_interpreter[0]);
    field(retired_interpreter[1]);
}

constexpr std::size_t
configFieldVisits()
{
    GpuConfig cfg;
    std::size_t n = 0;
    configFields([&n](const auto &) { ++n; }, cfg);
    return n;
}

static_assert(configFieldVisits() ==
                  aggregateArity<GpuConfig>() + retiredConfigFields,
              "GpuConfig changed — update configFields()");

void
saveConfig(Serializer &ser, const GpuConfig &cfg)
{
    configFields(
        [&ser](const auto &f) {
            using F = std::decay_t<decltype(f)>;
            if constexpr (std::is_same_v<F, bool>)
                ser.put<std::uint8_t>(f);
            else if constexpr (std::is_enum_v<F>)
                ser.put<std::uint32_t>(static_cast<std::uint32_t>(f));
            else
                ser.put(f);
        },
        cfg);
}

GpuConfig
restoreConfig(Deserializer &des)
{
    GpuConfig cfg;
    configFields(
        [&des](auto &f) {
            using F = std::decay_t<decltype(f)>;
            if constexpr (std::is_same_v<F, bool>)
                f = des.get<std::uint8_t>() != 0;
            else if constexpr (std::is_enum_v<F>)
                f = static_cast<F>(des.get<std::uint32_t>());
            else
                des.get(f);
        },
        cfg);
    return cfg;
}

} // namespace

std::string
toString(SharePolicy policy)
{
    switch (policy) {
      case SharePolicy::Spatial:
        return "spatial";
      case SharePolicy::VtFill:
        return "vt-fill";
      case SharePolicy::Preempt:
        return "preempt";
    }
    return "unknown";
}

bool
parseSharePolicy(const std::string &name, SharePolicy &out)
{
    if (name == "spatial")
        out = SharePolicy::Spatial;
    else if (name == "vt-fill")
        out = SharePolicy::VtFill;
    else if (name == "preempt")
        out = SharePolicy::Preempt;
    else
        return false;
    return true;
}

Gpu::Gpu(const GpuConfig &config)
    : config_(config),
      noc_(NocParams{config.nocLatency, config.nocFlitsPerCycle,
                     config.numSms, config.numMemPartitions,
                     config.fastForwardEnabled})
{
    config_.validate();
    for (std::uint32_t p = 0; p < config_.numMemPartitions; ++p) {
        partitions_.push_back(
            std::make_unique<MemoryPartition>(p, config_, noc_));
    }
    for (std::uint32_t s = 0; s < config_.numSms; ++s)
        sms_.push_back(std::make_unique<SmCore>(s, config_, noc_));

    noc_.setRequestSink([this](const MemRequest &req, Cycle now) {
        partitions_[partitionOf(req.lineAddr)]->receive(req, now);
    });
    noc_.setResponseSink([](const MemRequest &req, Cycle now) {
        VTSIM_ASSERT(req.sink, "response with no sink");
        req.sink->memResponse(req.token, now);
    });
    noc_.setRouter([this](Addr line_addr) { return partitionOf(line_addr); });

    // Register the timed components with the central horizon. The order
    // is also the settle/reset/save order, so it must be deterministic.
    horizon_.add(&noc_);
    for (auto &p : partitions_)
        horizon_.add(p.get());
    for (auto &sm : sms_)
        horizon_.add(sm.get());

    // Scheduled wakeups the clock must not jump past: interval-sampler
    // boundaries and checkpoint boundaries. Both read through `this`
    // so enabling either later needs no re-registration.
    horizon_.addConstraint(
        [](void *ctx, Cycle) -> Cycle {
            const auto *gpu = static_cast<const Gpu *>(ctx);
            return gpu->sampler_ ? gpu->sampler_->nextSampleAt()
                                 : neverCycle;
        },
        this);
    horizon_.addConstraint(
        [](void *ctx, Cycle now) -> Cycle {
            const auto *gpu = static_cast<const Gpu *>(ctx);
            if (gpu->checkpointEvery_ == 0)
                return neverCycle;
            return (now / gpu->checkpointEvery_ + 1) * gpu->checkpointEvery_;
        },
        this);
    // Preempt-policy boundary decisions are scheduled wakeups too:
    // fast-forward jumps must land exactly on them so the blocked-grid
    // state changes at the same cycle with fast-forward on or off.
    horizon_.addConstraint(
        [](void *ctx, Cycle now) -> Cycle {
            const auto *gpu = static_cast<const Gpu *>(ctx);
            if (!gpu->preemptActive())
                return neverCycle;
            return (now / preemptBoundaryCycles_ + 1) *
                   preemptBoundaryCycles_;
        },
        this);

    // Flatten every component's stats into the telemetry registry.
    // Components have finished registering with their groups by now.
    for (auto &sm : sms_)
        sm->registerTelemetry(registry_);
    for (auto &p : partitions_)
        p->registerTelemetry(registry_);
    registry_.addGroup(noc_.stats());
}

void
Gpu::enableIntervalSampler(Cycle interval, std::ostream &os)
{
    sampler_ = std::make_unique<telemetry::IntervalSampler>(registry_,
                                                            interval, os);
}

void
Gpu::enableIntervalSampler(Cycle interval, const std::string &path)
{
    samplerFile_ = std::make_unique<std::ofstream>(path);
    if (!*samplerFile_)
        VTSIM_FATAL("cannot open stats-interval file '", path, "'");
    enableIntervalSampler(interval, *samplerFile_);
}

void
Gpu::enableTraceJson(const std::string &path)
{
    traceJson_ = std::make_unique<telemetry::TraceJsonWriter>(path);
    attachTraceJson();
}

void
Gpu::enableTraceJson(std::ostream &os)
{
    traceJson_ = std::make_unique<telemetry::TraceJsonWriter>(os);
    attachTraceJson();
}

void
Gpu::enableProfiler()
{
    profiler_ = std::make_unique<telemetry::SimProfiler>();
}

void
Gpu::attachTraceJson()
{
    for (auto &sm : sms_) {
        traceJson_->processName(sm->id(),
                                "sm" + std::to_string(sm->id()));
        sm->setTraceJson(traceJson_.get());
    }
    for (std::uint32_t p = 0; p < partitions_.size(); ++p) {
        const std::uint32_t pid = numSms() + p;
        traceJson_->processName(pid, "dram_" + std::to_string(p));
        partitions_[p]->setTraceJson(traceJson_.get(), pid);
    }
}

void
Gpu::setCheckpoint(const std::string &path, Cycle every_n)
{
    checkpointPath_ = path;
    checkpointEvery_ = every_n;
}

void
Gpu::reset()
{
    horizon_.resetAll();
    gmem_.reset();
    cycle_ = 0;

    grids_.clear();
    sharePolicy_ = SharePolicy::VtFill;
    priorityOrder_.clear();
    gridBase_.fill(0);
    lastBoundaryCompleted_.fill(0);
    gridStats_.clear();
    before_ = StatsSnapshot{};
    launchStart_ = 0;
    pendingResume_ = false;
    checkpointPath_.clear();
    checkpointEvery_ = 0;
    preemptRequested_.store(false, std::memory_order_relaxed);
    preempted_ = false;
    simMode_ = SimMode::Functional;
    recordTracePath_.clear();
    if (mtraceWriter_) {
        for (auto &sm : sms_)
            sm->setMtrace(nullptr);
        mtraceWriter_.reset();
    }
    mtraceReader_.reset();

    // Telemetry sinks are per-run wiring, not simulated state: drop
    // them and detach the raw pointers the components hold.
    sampler_.reset();
    samplerFile_.reset();
    profiler_.reset();
    if (traceJson_) {
        for (auto &sm : sms_)
            sm->setTraceJson(nullptr);
        for (auto &p : partitions_)
            p->setTraceJson(nullptr, 0);
        traceJson_.reset();
    }

    // The thread-count knob resets with the rest of the per-run wiring;
    // the pool itself survives (worker threads hold no simulated state,
    // and respawning them per job would dominate short runs).
    simThreads_ = 1;
    smStages_.clear();
    partStages_.clear();
}

bool
Gpu::oracleEnabled() const
{
#ifndef NDEBUG
    return true;
#else
    return config_.horizonOracle;
#endif
}

void
Gpu::takeSample()
{
    const std::uint64_t t0 =
        profiler_ ? telemetry::SimProfiler::nowNs() : 0;
    // Lazy SM windows may span the boundary; settling them here splits
    // the window without changing any total (sampleN's repeated-addition
    // contract), so fast-forwarded runs sample identical values.
    for (auto &sm : sms_)
        sm->flushFastForward();
    sampler_->sample(cycle_);
    if (profiler_) {
        profiler_->addDirect(telemetry::SimProfiler::Bucket::Sampler,
                             telemetry::SimProfiler::nowNs() - t0);
    }
}

void
Gpu::buildCheckpoint(std::vector<std::uint8_t> &out)
{
    // Checkpoints are taken at settled points only: flush the lazy SM
    // windows so every save() sees per-cycle-exact state.
    for (auto &sm : sms_)
        sm->flushFastForward();

    Serializer ser;
    std::size_t sec = ser.beginSection("conf");
    saveConfig(ser, config_);
    ser.endSection(sec);

    sec = ser.beginSection("gpux");
    ser.put<std::uint64_t>(cycle_);
    ser.put<std::uint64_t>(launchStart_);
    ser.put<std::uint8_t>(static_cast<std::uint8_t>(sharePolicy_));
    ser.put<std::uint32_t>(std::uint32_t(grids_.size()));
    for (std::size_t g = 0; g < grids_.size(); ++g) {
        const GridContext &ctx = grids_[g];
        ser.putString(ctx.kernelName);
        ser.put<std::uint64_t>(ctx.kernelInstrs);
        ser.put<std::uint32_t>(ctx.kernelRegs);
        ser.put<std::uint32_t>(ctx.kernelShared);
        ser.put(ctx.params.grid);
        ser.put(ctx.params.cta);
        ser.putVec(ctx.params.params);
        ser.put<std::uint32_t>(ctx.priority);
        ser.put<std::uint64_t>(
            ctx.dispatcher ? ctx.dispatcher->dispatched() : 0);
        ser.put<std::uint64_t>(gridBase_[g]);
        ser.put<std::uint64_t>(lastBoundaryCompleted_[g]);
    }
    before_.save(ser);
    ser.put<std::uint8_t>(static_cast<std::uint8_t>(simMode_));
    ser.put<std::uint8_t>(sampler_ ? 1 : 0);
    ser.endSection(sec);
    if (sampler_)
        sampler_->save(ser);

    gmem_.save(ser);
    horizon_.saveAll(ser);

    const auto &payload = ser.buffer();
    const std::uint32_t version = 2;
    const std::uint64_t size = payload.size();
    out.clear();
    out.reserve(8 + sizeof(version) + sizeof(size) + payload.size());
    const auto append = [&out](const void *p, std::size_t n) {
        const auto *bytes = static_cast<const std::uint8_t *>(p);
        out.insert(out.end(), bytes, bytes + n);
    };
    append("vtsimCKP", 8);
    append(&version, sizeof(version));
    append(&size, sizeof(size));
    append(payload.data(), payload.size());
}

void
Gpu::saveCheckpoint(std::vector<std::uint8_t> &out)
{
    buildCheckpoint(out);
}

void
Gpu::writeCheckpoint()
{
    const std::uint64_t t0 =
        profiler_ ? telemetry::SimProfiler::nowNs() : 0;
    std::vector<std::uint8_t> image;
    buildCheckpoint(image);
    std::ofstream out(checkpointPath_,
                      std::ios::binary | std::ios::trunc);
    if (!out)
        VTSIM_FATAL("cannot open checkpoint file '", checkpointPath_, "'");
    out.write(reinterpret_cast<const char *>(image.data()),
              std::streamsize(image.size()));
    if (!out)
        VTSIM_FATAL("short write to checkpoint '", checkpointPath_, "'");
    if (profiler_) {
        profiler_->addDirect(
            telemetry::SimProfiler::Bucket::CheckpointWrite,
            telemetry::SimProfiler::nowNs() - t0);
    }
}

LaunchParams
Gpu::restoreCheckpoint(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        VTSIM_FATAL("cannot open checkpoint file '", path, "'");
    std::vector<std::uint8_t> image(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return restoreImage(image.data(), image.size(), "'" + path + "'");
}

LaunchParams
Gpu::restoreCheckpoint(const std::vector<std::uint8_t> &image)
{
    return restoreImage(image.data(), image.size(),
                        "in-memory checkpoint");
}

LaunchParams
Gpu::restoreImage(const std::uint8_t *data, std::size_t size,
                  const std::string &source)
{
    if (size < 8 + sizeof(std::uint32_t) + sizeof(std::uint64_t) ||
        std::memcmp(data, "vtsimCKP", 8) != 0) {
        VTSIM_FATAL(source, " is not a vtsim checkpoint");
    }
    std::uint32_t version = 0;
    std::memcpy(&version, data + 8, sizeof(version));
    if (version != 2)
        VTSIM_FATAL("unsupported checkpoint version ", version, " in ",
                    source);
    std::uint64_t payload_size = 0;
    std::memcpy(&payload_size, data + 8 + sizeof(version),
                sizeof(payload_size));
    const std::size_t header = 8 + sizeof(version) + sizeof(payload_size);
    if (payload_size != size - header)
        VTSIM_FATAL("checkpoint ", source, " is truncated");

    Deserializer des(data + header, payload_size);
    des.sinkResolver = [](void *ctx, std::uint32_t sm_id)
        -> MemResponseSink * {
        return &static_cast<Gpu *>(ctx)->sms_.at(sm_id)->ldst();
    };
    des.sinkCtx = this;

    des.beginSection("conf");
    const GpuConfig saved = restoreConfig(des);
    if (!(saved == config_)) {
        VTSIM_FATAL("checkpoint ", source,
                    " was taken with a different GpuConfig");
    }
    des.endSection();

    des.beginSection("gpux");
    cycle_ = des.get<std::uint64_t>();
    launchStart_ = des.get<std::uint64_t>();
    const auto policy = des.get<std::uint8_t>();
    if (policy > static_cast<std::uint8_t>(SharePolicy::Preempt))
        VTSIM_FATAL("checkpoint ", source, " has unknown share policy ",
                    unsigned(policy));
    sharePolicy_ = static_cast<SharePolicy>(policy);
    const auto num_grids = des.get<std::uint32_t>();
    if (num_grids > maxGrids)
        VTSIM_FATAL("checkpoint ", source, " has ", num_grids,
                    " grids; this build supports ", maxGrids);
    grids_.clear();
    gridBase_.fill(0);
    lastBoundaryCompleted_.fill(0);
    for (std::uint32_t g = 0; g < num_grids; ++g) {
        GridContext ctx;
        ctx.kernelName = des.getString();
        ctx.kernelInstrs = des.get<std::uint64_t>();
        ctx.kernelRegs = des.get<std::uint32_t>();
        ctx.kernelShared = des.get<std::uint32_t>();
        des.get(ctx.params.grid);
        des.get(ctx.params.cta);
        des.getVec(ctx.params.params);
        ctx.priority = des.get<std::uint32_t>();
        const auto dispatched = des.get<std::uint64_t>();
        gridBase_[g] = des.get<std::uint64_t>();
        lastBoundaryCompleted_[g] = des.get<std::uint64_t>();
        ctx.dispatcher = std::make_unique<CtaDispatcher>(ctx.params);
        ctx.dispatcher->setDispatched(dispatched);
        grids_.push_back(std::move(ctx));
    }
    before_.restore(des);
    const auto mode = des.get<std::uint8_t>();
    if (mode > static_cast<std::uint8_t>(SimMode::Replay))
        VTSIM_FATAL("checkpoint ", source, " has unknown simulation mode ",
                    unsigned(mode));
    simMode_ = static_cast<SimMode>(mode);
    const bool had_sampler = des.get<std::uint8_t>() != 0;
    des.endSection();

    if (had_sampler && !sampler_) {
        VTSIM_FATAL("checkpoint has interval-sampler state; enable the "
                    "same sampling interval before restoring");
    }
    if (!had_sampler && sampler_) {
        VTSIM_FATAL("checkpoint has no interval-sampler state; restore "
                    "without a sampler enabled");
    }
    if (sampler_)
        sampler_->restore(des);

    gmem_.restore(des);
    horizon_.restoreAll(des);
    if (!des.finished())
        VTSIM_FATAL("checkpoint ", source, " has trailing bytes");

    rebuildPriorityOrder();
    pendingResume_ = true;
    return grids_.empty() ? LaunchParams{} : grids_.front().params;
}

std::vector<GridLaunch>
Gpu::restoredGrids() const
{
    std::vector<GridLaunch> out;
    out.reserve(grids_.size());
    for (const GridContext &ctx : grids_) {
        GridLaunch gl;
        gl.params = ctx.params;
        gl.priority = ctx.priority;
        out.push_back(std::move(gl));
    }
    return out;
}

std::uint32_t
Gpu::partitionOf(Addr line_addr) const
{
    return (line_addr / config_.l2LineSize) % config_.numMemPartitions;
}

bool
Gpu::allIdle() const
{
    for (const auto &sm : sms_)
        if (!sm->idle())
            return false;
    for (const auto &p : partitions_)
        if (!p->idle())
            return false;
    return noc_.idle();
}

void
Gpu::dumpStats(std::ostream &os)
{
    for (auto &sm : sms_)
        sm->flushFastForward();
    for (const StatGroup *group : registry_.groups())
        group->dump(os);
}

void
Gpu::flushCaches()
{
    for (auto &sm : sms_)
        sm->flushCaches();
    for (auto &p : partitions_)
        p->flushCaches();
}

void
Gpu::enableMtraceRecord(const std::string &path)
{
    if (path.empty())
        VTSIM_FATAL("empty trace-record path");
    recordTracePath_ = path;
}

KernelStats
Gpu::replayTrace(const std::string &path)
{
    if (!recordTracePath_.empty()) {
        VTSIM_FATAL("trace record and trace replay are mutually "
                    "exclusive on one Gpu");
    }
    mtraceReader_ = std::make_unique<MtraceReader>();
    mtraceReader_->load(path);
    const MtraceHeader &h = mtraceReader_->header();
    if (h.numSms != config_.numSms ||
        h.numMemPartitions != config_.numMemPartitions ||
        h.l1LineSize != config_.l1LineSize ||
        h.l2LineSize != config_.l2LineSize) {
        VTSIM_FATAL("mtrace '", path, "' was recorded on a different "
                    "machine shape (", h.numSms, " SMs, ",
                    h.numMemPartitions, " partitions, L1/L2 lines ",
                    h.l1LineSize, "/", h.l2LineSize,
                    ") than this GpuConfig (", config_.numSms, "/",
                    config_.numMemPartitions, "/", config_.l1LineSize,
                    "/", config_.l2LineSize, ")");
    }
    preempted_ = false;

    // The replay loop reuses the launch drivers (sequential and
    // sharded); they only consult the kernel for the watchdog message,
    // so a one-instruction placeholder stands in for the recorded
    // kernel, whose name the checkpoint identity carries.
    const Kernel kernel = assemble(".kernel replay\n  exit\n");

    if (pendingResume_) {
        if (simMode_ != SimMode::Replay) {
            VTSIM_FATAL("checkpoint was taken in functional-execution "
                        "mode; resume it with a functional launch, not "
                        "--replay-trace");
        }
        if (grids_.size() != 1 ||
            grids_[0].kernelName != "replay:" + h.kernelName) {
            VTSIM_FATAL("checkpoint resumes a replay of '",
                        grids_.empty() ? "" : grids_[0].kernelName,
                        "' but trace '", path, "' records kernel '",
                        h.kernelName, "'");
        }
        pendingResume_ = false;
        for (std::uint32_t s = 0; s < sms_.size(); ++s)
            sms_[s]->resumeReplay(&mtraceReader_->accesses(s));
    } else {
        simMode_ = SimMode::Replay;
        grids_.clear();
        GridContext ctx;
        ctx.params.grid = h.grid;
        ctx.params.cta = h.cta;
        ctx.kernelName = "replay:" + h.kernelName;
        ctx.kernelInstrs = kernel.size();
        ctx.kernelRegs = kernel.regsPerThread();
        ctx.kernelShared = kernel.sharedBytesPerCta();
        // The recording run dispatched the whole grid; the replay
        // admits nothing, so the dispatcher starts fully drained.
        ctx.dispatcher = std::make_unique<CtaDispatcher>(ctx.params);
        ctx.dispatcher->setDispatched(ctx.params.numCtas());
        grids_.push_back(std::move(ctx));
        sharePolicy_ = SharePolicy::VtFill;
        rebuildPriorityOrder();
        before_ = StatsSnapshot::capture(registry_);
        launchStart_ = cycle_;
        if (sampler_)
            sampler_->beginLaunch(cycle_);
        for (std::uint32_t s = 0; s < sms_.size(); ++s)
            sms_[s]->beginReplay(&mtraceReader_->accesses(s), cycle_);
    }

    const Cycle start = launchStart_;
    const unsigned workers = effectiveSimThreads();
    if (profiler_)
        profiler_->beginRun();
    if (workers > 1)
        runSharded(workers);
    else
        runSequential();
    if (profiler_)
        profiler_->endRun();

    for (auto &sm : sms_)
        sm->flushFastForward();
    if (sampler_ && !preempted_)
        sampler_->finalSample(cycle_);
    if (checkpointEvery_ == 0 && !checkpointPath_.empty() && !preempted_)
        writeCheckpoint();

    KernelStats stats;
    stats.cycles = cycle_ - start;
    StatsSnapshot::capture(registry_).delta(before_, registry_, stats);
    // No CTA-completion invariant here: a replay completes zero CTAs
    // and issues zero instructions by construction.
    stats.ipc = stats.cycles
                    ? double(stats.warpInstructions) / stats.cycles
                    : 0.0;
    return stats;
}

KernelStats
Gpu::launch(const Kernel &kernel, const LaunchParams &launch)
{
    GridLaunch gl;
    gl.kernel = &kernel;
    gl.params = launch;
    std::vector<GridLaunch> launches;
    launches.push_back(std::move(gl));
    return launchConcurrent(launches, SharePolicy::VtFill);
}

KernelStats
Gpu::launchConcurrent(const std::vector<GridLaunch> &launches,
                      SharePolicy policy)
{
    if (launches.empty())
        VTSIM_FATAL("concurrent launch with no grids");
    if (launches.size() > maxGrids) {
        VTSIM_FATAL("concurrent launch with ", launches.size(),
                    " grids exceeds the ", maxGrids, "-grid limit");
    }
    for (const GridLaunch &gl : launches) {
        if (!gl.kernel)
            VTSIM_FATAL("concurrent launch with a null kernel");
        if (gl.params.numCtas() == 0)
            VTSIM_FATAL("empty grid");
        if (gl.params.threadsPerCta() == 0)
            VTSIM_FATAL("empty CTA");
    }
    // One mode-matrix check covers every launch-shape rule: record vs
    // co-run, record vs mid-run checkpoints, record vs resume, preempt
    // without VT (config/sim_mode.hh).
    SimModeSpec mode;
    mode.recordTrace = !recordTracePath_.empty();
    mode.restore = pendingResume_;
    mode.checkpointEvery = checkpointEvery_;
    mode.numGrids = launches.size();
    mode.preemptPolicy = policy == SharePolicy::Preempt;
    mode.vtEnabled = config_.vtEnabled;
    requireValidSimMode(mode);
    // A pending requestPreempt() survives into this launch on purpose:
    // the job service pre-arms it to stop a run at its first cadence
    // boundary. Only the *outcome* flag resets per launch.
    preempted_ = false;

    if (pendingResume_) {
        // Resuming a restored checkpoint: the machine state is already
        // loaded; verify the caller passed the checkpoint's kernels and
        // grids, then re-attach the live bindings (pointers into caller
        // objects) that a checkpoint cannot carry.
        if (simMode_ == SimMode::Replay) {
            VTSIM_FATAL("checkpoint was taken in trace-replay mode; "
                        "resume it with --replay-trace "
                        "(Gpu::replayTrace), not a functional launch");
        }
        if (launches.size() != grids_.size()) {
            VTSIM_FATAL("resume launch has ", launches.size(),
                        " grids but the checkpoint carries ",
                        grids_.size());
        }
        if (grids_.size() > 1 && policy != sharePolicy_) {
            VTSIM_FATAL("resume share policy '", toString(policy),
                        "' does not match the checkpoint's '",
                        toString(sharePolicy_), "'");
        }
        pendingResume_ = false;
        for (std::size_t g = 0; g < launches.size(); ++g) {
            const GridLaunch &gl = launches[g];
            GridContext &ctx = grids_[g];
            if (gl.kernel->name() != ctx.kernelName ||
                gl.kernel->size() != ctx.kernelInstrs ||
                gl.kernel->regsPerThread() != ctx.kernelRegs ||
                gl.kernel->sharedBytesPerCta() != ctx.kernelShared) {
                VTSIM_FATAL("resume kernel '", gl.kernel->name(),
                            "' of grid ", g,
                            " does not match the checkpoint's '",
                            ctx.kernelName, "'");
            }
            if (!(gl.params.grid == ctx.params.grid) ||
                !(gl.params.cta == ctx.params.cta) ||
                gl.params.params != ctx.params.params ||
                gl.priority != ctx.priority) {
                VTSIM_FATAL("resume launch parameters of grid ", g,
                            " do not match the checkpoint's");
            }
            ctx.kernel = gl.kernel;
        }
        for (auto &sm : sms_) {
            for (std::size_t g = 0; g < grids_.size(); ++g) {
                sm->rebindGrid(GridId(g), *grids_[g].kernel,
                               grids_[g].params, gmem_);
            }
        }
    } else {
        grids_.clear();
        for (const GridLaunch &gl : launches) {
            GridContext ctx;
            ctx.kernel = gl.kernel;
            ctx.params = gl.params;
            ctx.priority = gl.priority;
            ctx.kernelName = gl.kernel->name();
            ctx.kernelInstrs = gl.kernel->size();
            ctx.kernelRegs = gl.kernel->regsPerThread();
            ctx.kernelShared = gl.kernel->sharedBytesPerCta();
            ctx.dispatcher = std::make_unique<CtaDispatcher>(gl.params);
            grids_.push_back(std::move(ctx));
        }
        sharePolicy_ = policy;
        rebuildPriorityOrder();
        for (std::size_t g = 0; g < grids_.size(); ++g) {
            gridBase_[g] = gridCompleted(std::uint32_t(g));
            lastBoundaryCompleted_[g] = 0;
        }
        for (auto &sm : sms_) {
            sm->beginGridBinding(gmem_);
            for (std::size_t g = 0; g < grids_.size(); ++g)
                sm->bindGrid(GridId(g), *grids_[g].kernel,
                             grids_[g].params);
        }
        simMode_ = SimMode::Functional;

        if (!recordTracePath_.empty()) {
            MtraceHeader header;
            header.numSms = config_.numSms;
            header.numMemPartitions = config_.numMemPartitions;
            header.l1LineSize = config_.l1LineSize;
            header.l2LineSize = config_.l2LineSize;
            header.kernelName = grids_[0].kernelName;
            header.grid = grids_[0].params.grid;
            header.cta = grids_[0].params.cta;
            mtraceWriter_ = std::make_unique<MtraceWriter>();
            mtraceWriter_->begin(recordTracePath_, header, cycle_);
            for (auto &sm : sms_)
                sm->setMtrace(mtraceWriter_.get());
        }

        // Snapshot counters so stats are per-launch deltas. The
        // snapshot is checkpointed: a resumed launch still reports
        // whole-launch statistics.
        before_ = StatsSnapshot::capture(registry_);
        launchStart_ = cycle_;
        if (sampler_)
            sampler_->beginLaunch(cycle_);
    }
    const Cycle start = launchStart_;
    const unsigned workers = effectiveSimThreads();
    if (profiler_)
        profiler_->beginRun();
    if (workers > 1)
        runSharded(workers);
    else
        runSequential();
    if (profiler_)
        profiler_->endRun();

    // Settle lazily skipped per-SM ticks before reading any statistic.
    for (auto &sm : sms_)
        sm->flushFastForward();
    if (mtraceWriter_) {
        for (auto &sm : sms_)
            sm->setMtrace(nullptr);
        mtraceWriter_->end();
        mtraceWriter_.reset();
    }
    // A preempted launch is mid-flight: no final sample, no end-of-run
    // checkpoint — the service saves an explicit image and the resumed
    // launch finishes both.
    if (sampler_ && !preempted_)
        sampler_->finalSample(cycle_);
    if (checkpointEvery_ == 0 && !checkpointPath_.empty() && !preempted_)
        writeCheckpoint();

    const StatsSnapshot after = StatsSnapshot::capture(registry_);
    KernelStats stats;
    stats.cycles = cycle_ - start;
    after.delta(before_, registry_, stats);

    std::uint64_t total_ctas = 0;
    for (const GridContext &ctx : grids_)
        total_ctas += ctx.params.numCtas();
    VTSIM_ASSERT(preempted_ || stats.ctasCompleted == total_ctas,
                 "CTA completion mismatch: ", stats.ctasCompleted, " of ",
                 total_ctas);
    stats.ipc = stats.cycles
                    ? double(stats.warpInstructions) / stats.cycles
                    : 0.0;

    gridStats_.clear();
    for (std::size_t g = 0; g < grids_.size(); ++g) {
        GridStats gs;
        gs.kernelName = grids_[g].kernelName;
        gs.priority = grids_[g].priority;
        gs.stats.cycles = stats.cycles;
        after.deltaGrid(before_, registry_, std::int32_t(g), gs.stats);
        gs.stats.ipc =
            gs.stats.cycles
                ? double(gs.stats.warpInstructions) / gs.stats.cycles
                : 0.0;
        gridStats_.push_back(std::move(gs));
    }
    return stats;
}

std::uint64_t
Gpu::totalIssued() const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->instructionsIssued();
    return total;
}

bool
Gpu::anyGridHasWork() const
{
    for (const GridContext &ctx : grids_)
        if (ctx.dispatcher->hasWork())
            return true;
    return false;
}

int
Gpu::pickAdmitGrid(std::uint32_t s) const
{
    const std::size_t n = grids_.size();
    if (n <= 1) {
        // The solo fast path — identical to the pre-concurrent
        // dispatcher check, so N=1 launches stay bit-identical.
        if (n == 1 && grids_[0].dispatcher->hasWork() &&
            sms_[s]->canAdmitCta(0)) {
            return 0;
        }
        return -1;
    }
    switch (sharePolicy_) {
      case SharePolicy::Spatial: {
        // SM s belongs to exactly one grid: the contiguous block
        // partition of the SM range (grid g owns SMs with
        // s*n/numSms == g).
        const auto g = std::uint32_t(std::uint64_t(s) * n / sms_.size());
        if (grids_[g].dispatcher->hasWork() &&
            sms_[s]->canAdmitCta(GridId(g))) {
            return int(g);
        }
        return -1;
      }
      case SharePolicy::VtFill:
        for (std::uint32_t g = 0; g < n; ++g) {
            if (grids_[g].dispatcher->hasWork() &&
                sms_[s]->canAdmitCta(GridId(g))) {
                return int(g);
            }
        }
        return -1;
      case SharePolicy::Preempt:
        for (const std::uint32_t g : priorityOrder_) {
            if (grids_[g].dispatcher->hasWork() &&
                sms_[s]->canAdmitCta(GridId(g))) {
                return int(g);
            }
        }
        return -1;
    }
    return -1;
}

bool
Gpu::admitPending() const
{
    for (std::uint32_t s = 0; s < sms_.size(); ++s)
        if (pickAdmitGrid(s) >= 0)
            return true;
    return false;
}

std::string
Gpu::launchName() const
{
    std::string name;
    for (const GridContext &ctx : grids_) {
        if (!name.empty())
            name += '+';
        name += ctx.kernelName;
    }
    return name;
}

std::uint64_t
Gpu::gridCompleted(std::uint32_t g) const
{
    std::uint64_t total = 0;
    for (const auto &sm : sms_)
        total += sm->gridCtasCompleted(GridId(g));
    return total;
}

void
Gpu::rebuildPriorityOrder()
{
    priorityOrder_.resize(grids_.size());
    for (std::uint32_t g = 0; g < priorityOrder_.size(); ++g)
        priorityOrder_[g] = g;
    std::stable_sort(priorityOrder_.begin(), priorityOrder_.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                         return grids_[a].priority < grids_[b].priority;
                     });
}

void
Gpu::preemptBoundaryTick()
{
    // The highest-priority grid with CTAs still to finish. Grids above
    // it are done; everything below is (re)blocked so its CTAs park
    // Inactive at their next swap opportunity. Once only one grid
    // remains unfinished nothing is blocked and the machine drains as a
    // solo run.
    int top = -1;
    for (const std::uint32_t g : priorityOrder_) {
        if (gridCompleted(g) - gridBase_[g] < grids_[g].params.numCtas()) {
            top = int(g);
            break;
        }
    }
    std::array<bool, maxGrids> blocked{};
    if (top >= 0) {
        bool after_top = false;
        for (const std::uint32_t g : priorityOrder_) {
            blocked[g] = after_top;
            if (int(g) == top)
                after_top = true;
        }
    }
    for (auto &sm : sms_)
        for (std::uint32_t g = 0; g < grids_.size(); ++g)
            sm->setGridActivationBlocked(GridId(g), blocked[g]);

    if (top >= 0) {
        // Online progress estimate (the interval sampler's per-grid
        // series reads the same counters): a top grid that completed
        // nothing since the last boundary earns a doubled eviction
        // budget per SM.
        const std::uint64_t done =
            gridCompleted(std::uint32_t(top)) - gridBase_[top];
        const std::uint32_t budget =
            done == lastBoundaryCompleted_[std::size_t(top)] ? 2 : 1;
        for (auto &sm : sms_) {
            // Preempting only helps SMs where the top grid is parked:
            // a resident-but-inactive CTA, or dispatcher work this SM
            // has capacity for (freed active slots let it run at once).
            if (!sm->hasInactiveCta(GridId(top)) &&
                !(grids_[top].dispatcher->hasWork() &&
                  sm->canAdmitCta(GridId(top)))) {
                continue;
            }
            std::uint32_t left = budget;
            for (auto it = priorityOrder_.rbegin();
                 it != priorityOrder_.rend() && left > 0; ++it) {
                if (!blocked[*it])
                    break; // Reached the top grid and above.
                left -= sm->forcePreemptGrid(GridId(*it), left, cycle_);
            }
        }
    }
    for (std::uint32_t g = 0; g < grids_.size(); ++g)
        lastBoundaryCompleted_[g] = gridCompleted(g) - gridBase_[g];
}

unsigned
Gpu::effectiveSimThreads() const
{
    // More workers than components would leave some idle every epoch;
    // the clamp also forces tiny configs (testMini: 1 SM, 1 partition)
    // onto the sequential path.
    const auto components =
        std::max<unsigned>(numSms(), unsigned(partitions_.size()));
    const unsigned n = std::min(simThreads_, components);
    if (n <= 1)
        return 1;
    if (!recordTracePath_.empty()) {
        std::cerr << "[vtsim] trace recording enabled; forcing "
                     "sim-threads=1 (the recorder is one stream in "
                     "global cycle order)\n";
        return 1;
    }
    if (Trace::instance().anyEnabled()) {
        std::cerr << "[vtsim] textual trace sink enabled; forcing "
                     "sim-threads=1 (the Trace facade is a process-global "
                     "singleton the shard workers would race on)\n";
        return 1;
    }
    return n;
}

Gpu::StepResult
Gpu::sequentialCycle(Cycle deadline)
{
    // Self-profiling measures every cycleCadence-th executed cycle;
    // the LoopOther mark here closes the post-tick bookkeeping span so
    // a measured cycle's phases tile its whole body (the directly
    // timed spans inside — sampler, checkpoint, horizon settle —
    // refresh the phase clock and are never double-counted).
    if (profiler_ && profiler_->beginCycle()) {
        const StepResult r = sequentialCycleBody(deadline, true);
        profiler_->markPhase(telemetry::SimProfiler::Bucket::LoopOther);
        return r;
    }
    return sequentialCycleBody(deadline, false);
}

Gpu::StepResult
Gpu::sequentialCycleBody(Cycle deadline, bool prof)
{
    // CTA work distribution: one CTA per SM per cycle, round-robin;
    // pickAdmitGrid chooses which grid's dispatcher feeds each SM.
    // Under sharded trace staging (the serial fast path between epochs)
    // the admission events must merge before every tick-phase event of
    // this cycle, so the stage's rank is retargeted around the call.
    bool admitted = false;
    for (std::uint32_t s = 0; s < sms_.size(); ++s) {
        SmCore &sm = *sms_[s];
        const int g = pickAdmitGrid(s);
        if (g >= 0) {
            if (!smStages_.empty())
                smStages_[s]->setRank(s);
            sm.admitCta(grids_[g].dispatcher->next(), cycle_, GridId(g));
            if (!smStages_.empty())
                smStages_[s]->setRank(smTickRank(s));
            admitted = true;
        }
    }

    if (prof)
        profiler_->markPhase(telemetry::SimProfiler::Bucket::CtaAdmission);
    const std::uint64_t issued_before = totalIssued();
    noc_.tick(cycle_);
    if (prof)
        profiler_->markPhase(telemetry::SimProfiler::Bucket::NocTick);
    for (auto &p : partitions_)
        p->tick(cycle_);
    if (prof)
        profiler_->markPhase(
            telemetry::SimProfiler::Bucket::PartitionTick);
    for (auto &sm : sms_)
        sm->tick(cycle_);
    if (prof)
        profiler_->markPhase(telemetry::SimProfiler::Bucket::SmTick);

    ++cycle_;
    if (sampler_ && cycle_ == sampler_->nextSampleAt())
        takeSample();
    const bool done = !anyGridHasWork() && allIdle();
    if (preemptActive() && !done &&
        cycle_ % preemptBoundaryCycles_ == 0) {
        preemptBoundaryTick();
    }
    // Periodic checkpoints land on multiples of checkpointEvery_,
    // and only strictly mid-kernel: a resumed launch re-enters the
    // loop exactly where the admission phase for this cycle would
    // have run, so the remainder replays bit-identically. The same
    // boundaries are the preemption points: a cadence with an empty
    // path arms preemption without writing files.
    if (checkpointEvery_ != 0 && !done && cycle_ % checkpointEvery_ == 0) {
        if (!checkpointPath_.empty())
            writeCheckpoint();
        if (preemptRequested_.exchange(false, std::memory_order_relaxed)) {
            preempted_ = true;
            return StepResult::Preempted;
        }
    }
    if (done)
        return StepResult::Done;
    if (cycle_ >= deadline) {
        VTSIM_FATAL("watchdog: kernel '", launchName(), "' exceeded ",
                    config_.maxCycles, " cycles");
    }

    // Event-horizon fast-forward: when this cycle did nothing and
    // the next admission/issue/completion provably lies in the
    // future, jump straight to it, bulk-replicating the per-cycle
    // accounting the skipped empty ticks would have done. Every
    // statistic is bit-identical to the naive loop's. The horizon
    // itself — the min over component next events, clamped by
    // sampler/checkpoint/preempt-boundary wakeups — is EventHorizon's
    // job.
    if (!config_.fastForwardEnabled)
        return StepResult::Running;
    if (admitted || totalIssued() != issued_before)
        return StepResult::Running; // A busy cycle is never at an
                                    // event-free horizon.
    if (admitPending())
        return StepResult::Running; // The next iteration admits.
    const Cycle horizon = horizon_.target(cycle_, deadline);
    if (horizon <= cycle_)
        return StepResult::Running;
    {
        const std::uint64_t t0 =
            profiler_ ? telemetry::SimProfiler::nowNs() : 0;
        horizon_.advance(cycle_, horizon, oracleEnabled());
        if (profiler_) {
            profiler_->addDirect(
                telemetry::SimProfiler::Bucket::HorizonSettle,
                telemetry::SimProfiler::nowNs() - t0);
        }
    }
    cycle_ = horizon;
    if (cycle_ >= deadline) {
        VTSIM_FATAL("watchdog: kernel '", launchName(), "' exceeded ",
                    config_.maxCycles, " cycles");
    }
    if (sampler_ && cycle_ == sampler_->nextSampleAt())
        takeSample();
    if (preemptActive() && cycle_ % preemptBoundaryCycles_ == 0)
        preemptBoundaryTick();
    if (checkpointEvery_ != 0 && cycle_ % checkpointEvery_ == 0) {
        if (!checkpointPath_.empty())
            writeCheckpoint();
        if (preemptRequested_.exchange(false, std::memory_order_relaxed)) {
            preempted_ = true;
            return StepResult::Preempted;
        }
    }
    return StepResult::Running;
}

void
Gpu::runSequential()
{
    const Cycle deadline = launchStart_ + config_.maxCycles;
    while (sequentialCycle(deadline) == StepResult::Running) {
    }
}

/**
 * The sharded epoch driver. One run is divided into fixed-length epochs
 * no longer than the shortest cross-shard feedback path; inside an
 * epoch every worker ticks only the SMs and memory partitions it owns,
 * all cross-shard traffic is staged, and the barrier folds the staged
 * state back in canonical sequential order. Four mechanisms carry the
 * bit-identity guarantee (docs/ARCHITECTURE.md, "Sharded simulation"):
 *
 *  1. NoC staging: sends append to per-source buffers; the epoch bound
 *     (<= nocLatency) means nothing staged can mature in-epoch, so
 *     merging at the barrier in (send cycle, source, sequence) order
 *     reproduces the sequential queues byte for byte.
 *  2. Deferred global memory: functional writes are parked and replayed
 *     at the barrier in sequential issue order; lane registers that
 *     observed stale values are patched before their loads complete
 *     (epoch bound <= l1HitLatency guarantees no in-epoch completion).
 *  3. Admission pauses: the CTA dispatcher is frozen during an epoch; a
 *     worker whose SM frees a slot pauses it, and the barrier replays
 *     the admission scan in exact (cycle, SM) order.
 *  4. Trace staging: every component writes Perfetto events into a
 *     private stage; barriers merge them in within-cycle emission-rank
 *     order, so the JSON is byte-identical to the sequential file.
 */
void
Gpu::runSharded(unsigned workers)
{
    const Cycle deadline = launchStart_ + config_.maxCycles;
    // The epoch must not outlive the shortest cross-shard feedback
    // path: nocLatency bounds when staged traffic could mature, and
    // l1HitLatency bounds when an in-epoch load could complete and
    // release its scoreboard before the barrier patches registers.
    const Cycle epoch_len = std::max<Cycle>(
        1, std::min<Cycle>(config_.nocLatency, config_.l1HitLatency));

    if (!pool_ || pool_->workers() != workers)
        pool_ = std::make_unique<ShardPool>(workers);

    // Retarget every component's Perfetto writer at a private staging
    // buffer for the duration of the run.
    if (traceJson_) {
        smStages_.clear();
        partStages_.clear();
        for (std::uint32_t s = 0; s < sms_.size(); ++s) {
            auto stage = std::make_unique<telemetry::TraceStage>();
            stage->setRank(smTickRank(s));
            sms_[s]->setTraceJson(stage.get());
            smStages_.push_back(std::move(stage));
        }
        for (std::uint32_t p = 0; p < partitions_.size(); ++p) {
            auto stage = std::make_unique<telemetry::TraceStage>();
            stage->setRank(numSms() + p);
            partitions_[p]->setTraceJson(stage.get(), numSms() + p);
            partStages_.push_back(std::move(stage));
        }
    }

    struct SmEpoch
    {
        Cycle stopCycle = 0;  ///< First cycle this SM has not ticked.
        Cycle lastActive = 0; ///< Last cycle it was non-idle after its tick.
        Cycle pauseCycle = 0; ///< Cycle it paused for a barrier admission.
        bool stopped = false; ///< Idle-stopped before the epoch end.
        bool paused = false;
        bool sawActive = false;
    };
    struct PartEpoch
    {
        Cycle lastActive = 0;
        bool sawActive = false;
    };
    std::vector<SmEpoch> sm_ep(sms_.size());
    std::vector<PartEpoch> part_ep(partitions_.size());
    std::vector<Interconnect::PortDelta> sm_delta(sms_.size());
    std::vector<Interconnect::PortDelta> part_delta(partitions_.size());

    while (true) {
        // Serial fast path: while CTAs are being admitted (the launch
        // ramp and any cycle right after a slot freed), run plain
        // sequential cycles — admission is inherently serial, and these
        // cycles are a small fraction of a long run.
        if (admitPending()) {
            const StepResult r = sequentialCycle(deadline);
            mergeTraceStages();
            if (r != StepResult::Running)
                break;
            continue;
        }

        const Cycle tstart = cycle_;
        Cycle tend = tstart + epoch_len;
        // Sampler, checkpoint and preempt-policy boundaries must land
        // exactly on an epoch edge so the barrier observes the same
        // settled state the sequential loop would.
        if (sampler_)
            tend = std::min(tend, sampler_->nextSampleAt());
        if (checkpointEvery_ != 0) {
            tend = std::min(
                tend, (tstart / checkpointEvery_ + 1) * checkpointEvery_);
        }
        if (preemptActive()) {
            tend = std::min(tend, (tstart / preemptBoundaryCycles_ + 1) *
                                      preemptBoundaryCycles_);
        }
        tend = std::min(tend, deadline);
        VTSIM_ASSERT(tend > tstart, "empty sharded epoch at cycle ",
                     tstart);

        std::vector<std::vector<std::uint8_t>> pre_images;
        std::vector<std::uint64_t> pre_dispatched;
        if (config_.shardOracle) {
            pre_images = captureShardImages();
            for (const GridContext &ctx : grids_)
                pre_dispatched.push_back(ctx.dispatcher->dispatched());
        }

        // Admissions freeze for the epoch: only the barrier (or the
        // serial path) drains the dispatchers, so per-grid hasWork
        // cannot go stale mid-epoch.
        const bool admissions_open = anyGridHasWork();
        noc_.beginEpochStaging();
        gmem_.setDeferWrites(true);
        for (auto &sm : sms_)
            sm->beginEpochMemLog();
        std::fill(sm_ep.begin(), sm_ep.end(), SmEpoch{});
        std::fill(part_ep.begin(), part_ep.end(), PartEpoch{});
        std::fill(sm_delta.begin(), sm_delta.end(),
                  Interconnect::PortDelta{});
        std::fill(part_delta.begin(), part_delta.end(),
                  Interconnect::PortDelta{});

        // Profile every epochCadence-th epoch: per-worker compute time
        // (each worker stamps its own slot; the runEpoch barrier orders
        // the reads) and the serial barrier below as one merge span.
        const bool prof_epoch =
            profiler_ && profiler_->beginEpoch(workers);
        const auto epoch_work = [&](unsigned w) {
            const std::uint64_t w0 =
                prof_epoch ? telemetry::SimProfiler::nowNs() : 0;
            for (std::uint32_t p = 0; p < partitions_.size(); ++p) {
                if (!pool_->owns(w, p))
                    continue;
                MemoryPartition &part = *partitions_[p];
                PartEpoch &ep = part_ep[p];
                for (Cycle c = tstart; c < tend; ++c) {
                    noc_.drainRequestPort(p, c, part_delta[p]);
                    part.tick(c);
                    if (!part.idle()) {
                        ep.lastActive = c;
                        ep.sawActive = true;
                    }
                }
            }
            for (std::uint32_t s = 0; s < sms_.size(); ++s) {
                if (!pool_->owns(w, s))
                    continue;
                SmCore &sm = *sms_[s];
                SmEpoch &ep = sm_ep[s];
                sm.setEpochOwner(std::this_thread::get_id());
                for (Cycle c = tstart; c < tend; ++c) {
                    // The sequential loop would admit a CTA here; park
                    // the SM for the barrier's ordered admission scan.
                    // (pickAdmitGrid reads only this SM plus the frozen
                    // dispatchers, so it is epoch-safe.)
                    if (admissions_open && pickAdmitGrid(s) >= 0) {
                        ep.paused = true;
                        ep.pauseCycle = c;
                        break;
                    }
                    noc_.drainResponsePort(s, c, sm_delta[s]);
                    sm.tick(c);
                    if (!sm.idle()) {
                        ep.lastActive = c;
                        ep.sawActive = true;
                    } else if (noc_.responsePortEmpty(s)) {
                        // Nothing can reach this SM before the epoch
                        // ends (staged traffic matures later); skip its
                        // remaining idle ticks. Idle SM ticks charge
                        // stalls.idle, so the driver re-ticks exactly
                        // the skipped range at the barrier.
                        ep.stopped = true;
                        ep.stopCycle = c + 1;
                        break;
                    }
                }
                if (!ep.paused && !ep.stopped)
                    ep.stopCycle = tend;
                sm.setEpochOwner({});
            }
            if (prof_epoch) {
                profiler_->recordWorkerNs(
                    w, telemetry::SimProfiler::nowNs() - w0);
            }
        };
        pool_->runEpoch(epoch_work);
        if (prof_epoch)
            profiler_->finishEpochCompute();

        // --- Epoch barrier: everything below is driver-only. ---------

        // 1. Replay the admission scans the workers paused for, in the
        // exact (cycle, SM) order of the sequential loop, and continue
        // each resolved SM to the epoch end inline (staging and the
        // memory log are still armed, so these ticks are ordinary epoch
        // ticks that happen to run on the driver).
        using Pause = std::pair<Cycle, std::uint32_t>;
        std::priority_queue<Pause, std::vector<Pause>,
                            std::greater<Pause>>
            pauses;
        for (std::uint32_t s = 0; s < sms_.size(); ++s)
            if (sm_ep[s].paused)
                pauses.push({sm_ep[s].pauseCycle, s});
        while (!pauses.empty()) {
            const auto [c0, s] = pauses.top();
            pauses.pop();
            SmCore &sm = *sms_[s];
            SmEpoch &ep = sm_ep[s];
            ep.paused = false;
            bool admitted_here = false;
            {
                const int g = pickAdmitGrid(s);
                if (g >= 0) {
                    if (!smStages_.empty())
                        smStages_[s]->setRank(s);
                    sm.admitCta(grids_[g].dispatcher->next(), c0,
                                GridId(g));
                    if (!smStages_.empty())
                        smStages_[s]->setRank(smTickRank(s));
                    admitted_here = true;
                }
            }
            bool repaused = false;
            for (Cycle c = c0; c < tend; ++c) {
                // One admission per SM per cycle: at c0 the scan just
                // ran, so only later cycles may re-pause.
                if (pickAdmitGrid(s) >= 0 &&
                    !(admitted_here && c == c0)) {
                    ep.paused = true;
                    ep.pauseCycle = c;
                    pauses.push({c, s});
                    repaused = true;
                    break;
                }
                noc_.drainResponsePort(s, c, sm_delta[s]);
                sm.tick(c);
                if (!sm.idle()) {
                    ep.lastActive = c;
                    ep.sawActive = true;
                } else if (noc_.responsePortEmpty(s)) {
                    ep.stopped = true;
                    ep.stopCycle = c + 1;
                    break;
                }
            }
            if (!repaused && !ep.stopped)
                ep.stopCycle = tend;
        }

        // 2. Did the launch finish inside this epoch? If so, compute
        // the cycle the sequential loop would have exited at: one past
        // the last cycle any component was active after ticking, i.e.
        // the first cycle whose post-tick state was all-idle, plus one.
        bool done = !anyGridHasWork() && noc_.idle() &&
                    noc_.stagingEmpty();
        if (done) {
            for (const auto &sm : sms_)
                done = done && sm->idle();
            for (const auto &p : partitions_)
                done = done && p->idle();
        }
        Cycle end_cycle = tstart + 1;
        for (const SmEpoch &ep : sm_ep)
            end_cycle = std::max(end_cycle, ep.stopCycle);
        for (const PartEpoch &ep : part_ep)
            if (ep.sawActive)
                end_cycle = std::max(end_cycle, ep.lastActive + 2);
        // A delivery is machine activity even when the destination
        // absorbs it without turning non-idle (a write-back store lands
        // in the L2 tags instantly): the sequential run's NoC is
        // non-idle up to the delivery cycle, so it cannot observe
        // all-idle before the cycle after it.
        for (const auto &delta : part_delta)
            if (delta.sawFlit)
                end_cycle = std::max(end_cycle, delta.lastFlit + 1);
        for (const auto &delta : sm_delta)
            if (delta.sawFlit)
                end_cycle = std::max(end_cycle, delta.lastFlit + 1);

        // 3. Re-tick the idle-stopped SMs over the cycles they skipped
        // (idle ticks charge stalls.idle, so tick counts must match the
        // sequential run exactly; idle *partition* ticks are fully
        // neutral, which is why partitions simply ran to the epoch end).
        const Cycle catch_to = done ? end_cycle : tend;
        for (std::uint32_t s = 0; s < sms_.size(); ++s) {
            if (!sm_ep[s].stopped)
                continue;
            SmCore &sm = *sms_[s];
            for (Cycle c = sm_ep[s].stopCycle; c < catch_to; ++c)
                sm.tick(c);
        }

        // 4. Fold the epoch's cross-shard effects back in canonical
        // sequential order: NoC messages, port counters, the deferred
        // global-memory ops, then the staged trace events.
        noc_.mergeStaged();
        for (const auto &delta : part_delta)
            noc_.applyPortDelta(delta);
        for (const auto &delta : sm_delta)
            noc_.applyPortDelta(delta);
        gmem_.setDeferWrites(false);
        replayEpochMemory();
        for (auto &sm : sms_)
            sm->endEpochMemLog();
        if (config_.shardOracle)
            verifyShardEpoch(pre_images, pre_dispatched, tstart, catch_to);
        mergeTraceStages();
        if (prof_epoch) {
            profiler_->markPhase(
                telemetry::SimProfiler::Bucket::EpochMerge);
        }

        cycle_ = done ? end_cycle : tend;
        if (sampler_ && cycle_ == sampler_->nextSampleAt())
            takeSample();
        if (preemptActive() && !done &&
            cycle_ % preemptBoundaryCycles_ == 0) {
            preemptBoundaryTick();
        }
        if (checkpointEvery_ != 0 && !done &&
            cycle_ % checkpointEvery_ == 0) {
            if (!checkpointPath_.empty())
                writeCheckpoint();
            if (preemptRequested_.exchange(false,
                                           std::memory_order_relaxed)) {
                preempted_ = true;
                break;
            }
        }
        if (done)
            break;
        if (cycle_ >= deadline) {
            VTSIM_FATAL("watchdog: kernel '", launchName(),
                        "' exceeded ", config_.maxCycles, " cycles");
        }

        // Event-horizon fast-forward between epochs. Busy components
        // pin the target to the present, so a jump happens only when
        // provably nothing occurs at cycle_ either, in which case the
        // sequential loop reaches the same horizon (one empty tick
        // later) with identical bulk accounting. Like the sequential
        // loop, never jump right after a cycle that issued or admitted:
        // the VT stall streaks cached at that cycle's VT phase predate
        // its issue, and only a real tick re-evaluates them.
        if (!config_.fastForwardEnabled)
            continue;
        if (admitPending())
            continue;
        if (std::any_of(sms_.begin(), sms_.end(), [&](const auto &sm) {
                return sm->lastBusyCycle() == cycle_ - 1;
            })) {
            continue;
        }
        const Cycle horizon = horizon_.target(cycle_, deadline);
        if (horizon <= cycle_)
            continue;
        {
            const std::uint64_t t0 =
                profiler_ ? telemetry::SimProfiler::nowNs() : 0;
            horizon_.advance(cycle_, horizon, oracleEnabled());
            if (profiler_) {
                profiler_->addDirect(
                    telemetry::SimProfiler::Bucket::HorizonSettle,
                    telemetry::SimProfiler::nowNs() - t0);
            }
        }
        cycle_ = horizon;
        if (cycle_ >= deadline) {
            VTSIM_FATAL("watchdog: kernel '", launchName(),
                        "' exceeded ", config_.maxCycles, " cycles");
        }
        if (sampler_ && cycle_ == sampler_->nextSampleAt())
            takeSample();
        if (preemptActive() && cycle_ % preemptBoundaryCycles_ == 0)
            preemptBoundaryTick();
        if (checkpointEvery_ != 0 && cycle_ % checkpointEvery_ == 0) {
            if (!checkpointPath_.empty())
                writeCheckpoint();
            if (preemptRequested_.exchange(false,
                                           std::memory_order_relaxed)) {
                preempted_ = true;
                break;
            }
        }
    }

    // Hand the components back the real writer (no metadata re-emit:
    // attachTraceJson already named the processes).
    mergeTraceStages();
    if (traceJson_) {
        for (auto &sm : sms_)
            sm->setTraceJson(traceJson_.get());
        for (std::uint32_t p = 0; p < partitions_.size(); ++p)
            partitions_[p]->setTraceJson(traceJson_.get(), numSms() + p);
        smStages_.clear();
        partStages_.clear();
    }
}

void
Gpu::mergeTraceStages()
{
    if (smStages_.empty() && partStages_.empty())
        return;
    std::vector<telemetry::TraceStage::Event> events;
    const auto collect = [&events](auto &stages) {
        for (auto &stage : stages) {
            if (stage->empty())
                continue;
            auto drained = stage->drain();
            events.insert(events.end(),
                          std::make_move_iterator(drained.begin()),
                          std::make_move_iterator(drained.end()));
        }
    };
    collect(partStages_);
    collect(smStages_);
    if (events.empty())
        return;
    // (cycle, rank, seq) is unique across stages — ranks identify the
    // emitting phase (admission scan < partition ticks < SM ticks) and
    // seq orders events within one stage — so plain sort suffices and
    // reproduces the sequential within-cycle emission order.
    std::sort(events.begin(), events.end(),
              [](const telemetry::TraceStage::Event &a,
                 const telemetry::TraceStage::Event &b) {
                  return std::tie(a.cycle, a.rank, a.seq) <
                         std::tie(b.cycle, b.rank, b.seq);
              });
    for (const auto &e : events)
        telemetry::TraceStage::replay(e, *traceJson_);
}

void
Gpu::replayEpochMemory()
{
    // Concatenating the per-SM logs in SM order and stable-sorting by
    // cycle reproduces the sequential issue order: within a cycle the
    // SMs tick in index order, and each SM's log is in issue order.
    struct Entry
    {
        const SmCore::EpochMemOp *op;
        std::uint32_t sm;
    };
    std::vector<Entry> ops;
    for (std::uint32_t s = 0; s < sms_.size(); ++s)
        for (const auto &op : sms_[s]->epochMemLog())
            ops.push_back({&op, s});
    std::stable_sort(ops.begin(), ops.end(),
                     [](const Entry &a, const Entry &b) {
                         return a.op->cycle < b.op->cycle;
                     });
    for (const Entry &e : ops) {
        const SmCore::EpochMemOp &op = *e.op;
        switch (op.op) {
          case Opcode::STG:
            for (const LaneAccess &a : op.accesses)
                gmem_.write32(a.addr, a.data);
            break;
          case Opcode::LDG:
            // The lane registers were filled with deferred-view values
            // at issue; patch any that a replayed write changed. Sound
            // because the destination is scoreboard-held past the epoch
            // end (epoch length <= l1HitLatency).
            for (const LaneAccess &a : op.accesses) {
                const std::uint32_t v = gmem_.read32(a.addr);
                if (v != a.observed)
                    sms_[e.sm]->patchLaneReg(op.slot, op.warpInCta,
                                             a.lane, op.dst, v);
            }
            break;
          case Opcode::ATOMG_ADD:
            // Re-execute against settled memory: this computes the true
            // per-lane old values even for same-address chains that all
            // observed one stale value under deferral.
            for (const LaneAccess &a : op.accesses) {
                const std::uint32_t old = gmem_.read32(a.addr);
                gmem_.write32(a.addr, old + a.data);
                if (op.dst != noReg && old != a.observed)
                    sms_[e.sm]->patchLaneReg(op.slot, op.warpInCta,
                                             a.lane, op.dst, old);
            }
            break;
          default:
            VTSIM_FATAL("unexpected opcode ",
                        unsigned(op.op), " in epoch memory log");
        }
    }
}

std::vector<std::vector<std::uint8_t>>
Gpu::captureShardImages()
{
    for (auto &sm : sms_)
        sm->flushFastForward();
    std::vector<std::vector<std::uint8_t>> images;
    images.reserve(2 + partitions_.size() + sms_.size());
    const auto capture = [&images](const SimComponent &comp) {
        Serializer ser;
        comp.save(ser);
        images.push_back(ser.buffer());
    };
    capture(noc_);
    for (const auto &p : partitions_)
        capture(*p);
    for (const auto &sm : sms_)
        capture(*sm);
    Serializer ser;
    gmem_.save(ser);
    images.push_back(ser.buffer());
    return images;
}

void
Gpu::restoreShardImages(const std::vector<std::vector<std::uint8_t>> &images)
{
    VTSIM_ASSERT(images.size() == 2 + partitions_.size() + sms_.size(),
                 "shard image count mismatch");
    const auto restore = [this](SimComponent &comp,
                                const std::vector<std::uint8_t> &image) {
        Deserializer des(image);
        des.sinkResolver = [](void *ctx, std::uint32_t sm_id)
            -> MemResponseSink * {
            return &static_cast<Gpu *>(ctx)->sms_.at(sm_id)->ldst();
        };
        des.sinkCtx = this;
        comp.restore(des);
        VTSIM_ASSERT(des.finished(), "trailing bytes in shard image");
    };
    std::size_t i = 0;
    restore(noc_, images[i++]);
    for (auto &p : partitions_)
        restore(*p, images[i++]);
    for (auto &sm : sms_)
        restore(*sm, images[i++]);
    Deserializer des(images[i]);
    gmem_.restore(des);
    VTSIM_ASSERT(des.finished(), "trailing bytes in shard memory image");
}

std::string
Gpu::shardImageName(std::size_t idx) const
{
    if (idx == 0)
        return "noc";
    idx -= 1;
    if (idx < partitions_.size())
        return "partition " + std::to_string(idx);
    idx -= partitions_.size();
    if (idx < sms_.size())
        return "sm" + std::to_string(idx);
    return "global memory";
}

void
Gpu::verifyShardEpoch(const std::vector<std::vector<std::uint8_t>> &pre,
                      const std::vector<std::uint64_t> &pre_dispatched,
                      Cycle from, Cycle to)
{
    const auto post = captureShardImages();
    restoreShardImages(pre);
    VTSIM_ASSERT(pre_dispatched.size() == grids_.size(),
                 "shard-oracle dispatcher snapshot mismatch");
    for (std::size_t g = 0; g < grids_.size(); ++g)
        grids_[g].dispatcher->setDispatched(pre_dispatched[g]);
    // The rerun must not re-emit the events the stages already hold.
    if (traceJson_) {
        for (auto &sm : sms_)
            sm->setTraceJson(nullptr);
        for (auto &p : partitions_)
            p->setTraceJson(nullptr, 0);
    }
    // The naive sequential loop over the epoch (plus the exit cycles
    // the barrier accounted): no sampler, checkpoint, fast-forward or
    // watchdog — those belong to the driver, not the machine.
    for (Cycle c = from; c < to; ++c) {
        for (std::uint32_t s = 0; s < sms_.size(); ++s) {
            const int g = pickAdmitGrid(s);
            if (g >= 0)
                sms_[s]->admitCta(grids_[g].dispatcher->next(), c,
                                  GridId(g));
        }
        noc_.tick(c);
        for (auto &p : partitions_)
            p->tick(c);
        for (auto &sm : sms_)
            sm->tick(c);
    }
    const auto rerun = captureShardImages();
    if (traceJson_) {
        for (std::uint32_t s = 0; s < sms_.size(); ++s)
            sms_[s]->setTraceJson(smStages_[s].get());
        for (std::uint32_t p = 0; p < partitions_.size(); ++p)
            partitions_[p]->setTraceJson(partStages_[p].get(),
                                         numSms() + p);
    }
    // The simulation continues from the rerun's state, which this diff
    // proves byte-identical to the sharded epoch's outcome.
    for (std::size_t i = 0; i < post.size(); ++i) {
        if (rerun[i] != post[i]) {
            std::size_t at = 0;
            const std::size_t common =
                std::min(rerun[i].size(), post[i].size());
            while (at < common && rerun[i][at] == post[i][at])
                ++at;
            VTSIM_FATAL("shard oracle: ", shardImageName(i),
                        " diverged in epoch [", from, ", ", to,
                        "): first differing byte at offset ", at,
                        " (sharded image ", post[i].size(),
                        " bytes, sequential rerun ", rerun[i].size(),
                        " bytes)");
        }
    }
}

} // namespace vtsim
