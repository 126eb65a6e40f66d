/**
 * @file
 * The distributed job fabric end to end: the TCP/NDJSON transport
 * (base64, host:port parsing, bearer-token auth, connect retries), the
 * checkpoint-image byte-portability contract a migration rests on, and
 * — the load-bearing invariant — a coordinator-driven cross-daemon
 * migration of a parked job that finishes with KernelStats
 * bit-identical to the uninterrupted single-node run, alongside work
 * stealing and admission backpressure.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fabric/coordinator.hh"
#include "fabric/node_agent.hh"
#include "fabric/transport.hh"
#include "gpu/gpu.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/service.hh"
#include "workloads/workload.hh"
#include "test_util.hh"

namespace vtsim {
namespace {

using fabric::Coordinator;
using fabric::CoordinatorConfig;
using fabric::HostPort;
using fabric::NodeAgent;
using fabric::NodeAgentConfig;
using fabric::TransportError;
using service::Client;
using service::Daemon;
using service::DaemonConfig;
using service::JobId;
using service::JobService;
using service::JobSnapshot;
using service::JobSpec;
using service::JobState;
using service::Json;
using service::Priority;
using service::ServiceConfig;

constexpr const char *kToken = "fabric-test-secret";

using test::expectIdenticalStats;

/** The oracle: the same workload, uninterrupted, on a fresh Gpu with
 *  the job service's default config. */
KernelStats
runUninterrupted(const std::string &name, std::uint32_t scale)
{
    auto wl = makeWorkload(name, scale);
    const Kernel kernel = wl->buildKernel();
    Gpu gpu{GpuConfig::fermiLike()};
    const LaunchParams lp = wl->prepare(gpu.memory());
    const KernelStats stats = gpu.launch(kernel, lp);
    EXPECT_TRUE(wl->verify(gpu.memory())) << name;
    return stats;
}

std::string
tempDir(const std::string &tag)
{
    const std::string path = test::uniqueTempPath(tag);
    std::filesystem::create_directories(path);
    return path;
}

/** Poll until @p predicate holds or fail after 30 s. */
template <typename Pred>
void
spinUntil(Pred predicate, const char *what)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!predicate()) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline) << what;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
}

// --------------------------------------------------------------------
// Transport primitives
// --------------------------------------------------------------------

TEST(FabricTransport, Base64RoundTripsArbitraryBytes)
{
    std::vector<std::uint8_t> bytes;
    for (int n = 0; n < 4; ++n) { // All padding lengths.
        const std::string text = fabric::base64Encode(bytes);
        EXPECT_EQ(fabric::base64Decode(text), bytes);
        bytes.push_back(std::uint8_t(0xA5 ^ n));
    }
    // A deterministic pseudo-random blob well past one chunk.
    std::uint32_t x = 0x1234567u;
    bytes.clear();
    for (int n = 0; n < 100000; ++n) {
        x = x * 1664525u + 1013904223u;
        bytes.push_back(std::uint8_t(x >> 24));
    }
    EXPECT_EQ(fabric::base64Decode(fabric::base64Encode(bytes)), bytes);
}

TEST(FabricTransport, Base64DecodeIsStrict)
{
    EXPECT_THROW(fabric::base64Decode("abc"), TransportError);
    EXPECT_THROW(fabric::base64Decode("ab=c"), TransportError);
    EXPECT_THROW(fabric::base64Decode("a!=="), TransportError);
    EXPECT_THROW(fabric::base64Decode("===="), TransportError);
}

TEST(FabricTransport, ParseHostPort)
{
    const HostPort hp = fabric::parseHostPort("10.1.2.3:7774");
    EXPECT_EQ(hp.host, "10.1.2.3");
    EXPECT_EQ(hp.port, 7774);
    EXPECT_EQ(hp.str(), "10.1.2.3:7774");
    EXPECT_THROW(fabric::parseHostPort("host:99999"), TransportError);
    EXPECT_THROW(fabric::parseHostPort("host:"), TransportError);
    EXPECT_THROW(fabric::parseHostPort("host:7x7"), TransportError);
}

TEST(FabricTransport, ConnectRetriesUntilListenerAppears)
{
    // Reserve a port, drop the listener, and re-bind it only after the
    // client has started retrying — the daemon-restart window the
    // backoff exists for (SO_REUSEADDR makes the re-bind safe).
    const int probe = fabric::listenTcp(HostPort{"127.0.0.1", 0});
    const std::uint16_t port = fabric::boundPort(probe);
    ::close(probe);

    std::thread late([port] {
        std::this_thread::sleep_for(std::chrono::milliseconds(250));
        const int fd = fabric::listenTcp(HostPort{"127.0.0.1", port});
        const int conn = ::accept(fd, nullptr, nullptr);
        if (conn >= 0)
            ::close(conn);
        ::close(fd);
    });
    auto client =
        service::connectTcpWithRetry(HostPort{"127.0.0.1", port}, "");
    EXPECT_NE(client, nullptr);
    client.reset();
    late.join();
}

TEST(FabricTransport, ConnectRetryGivesUpAfterPolicyAttempts)
{
    const int probe = fabric::listenTcp(HostPort{"127.0.0.1", 0});
    const std::uint16_t port = fabric::boundPort(probe);
    ::close(probe);
    service::RetryPolicy policy;
    policy.attempts = 2;
    policy.baseDelayMs = 10;
    policy.maxDelayMs = 20;
    EXPECT_THROW(service::connectTcpWithRetry(
                     HostPort{"127.0.0.1", port}, "", policy),
                 TransportError);
}

// --------------------------------------------------------------------
// TCP daemon: same protocol, bearer-token auth
// --------------------------------------------------------------------

class TcpDaemonTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        config_.workers = 1;
        config_.spoolDir = tempDir("tcpd-spool");
        service_ = std::make_unique<JobService>(config_);
        DaemonConfig dc;
        dc.tcp = HostPort{"127.0.0.1", 0};
        dc.tcpEnabled = true;
        dc.authToken = kToken;
        daemon_ = std::make_unique<Daemon>(*service_, dc);
        daemon_->start();
        serveThread_ = std::thread([this] { daemon_->serve(); });
    }

    void
    TearDown() override
    {
        daemon_->requestStop();
        serveThread_.join();
        daemon_.reset();
        service_->shutdown();
        service_.reset();
    }

    HostPort
    addr() const
    {
        return HostPort{"127.0.0.1", daemon_->boundTcpPort()};
    }

    ServiceConfig config_;
    std::unique_ptr<JobService> service_;
    std::unique_ptr<Daemon> daemon_;
    std::thread serveThread_;
};

TEST_F(TcpDaemonTest, SubmitWaitOverTcpMatchesUninterrupted)
{
    Client client(addr(), kToken);
    Json::Object submit;
    submit["op"] = Json("submit");
    submit["workload"] = Json("vecadd");
    submit["scale"] = Json(2);
    const Json accepted = client.request(Json(std::move(submit)));
    ASSERT_TRUE(accepted.find("ok")->asBool()) << accepted.dump();
    Json::Object wait;
    wait["op"] = Json("wait");
    wait["job"] = Json(accepted.find("job")->asInt());
    const Json done = client.request(Json(std::move(wait)));
    ASSERT_EQ(done.find("state")->asString(), "done") << done.dump();
    expectIdenticalStats(
        service::kernelStatsFromJson(*done.find("stats")),
        runUninterrupted("vecadd", 2), "tcp submit");
}

TEST_F(TcpDaemonTest, WrongTokenIsRefusedBeforeAnyHandler)
{
    Client client(addr(), "wrong-secret");
    Json::Object ping;
    ping["op"] = Json("ping");
    const Json reply = client.request(Json(std::move(ping)));
    EXPECT_FALSE(reply.find("ok")->asBool());
    EXPECT_EQ(reply.find("error")->asString(), "unauthorized");

    Client bare(addr(), "");
    Json::Object status;
    status["op"] = Json("status");
    const Json refused = bare.request(Json(std::move(status)));
    EXPECT_FALSE(refused.find("ok")->asBool());
}

// --------------------------------------------------------------------
// Checkpoint-image byte portability (what migration rests on)
// --------------------------------------------------------------------

/**
 * Drive @p service (1 worker, preemptEvery 500) until a low-priority
 * "needle" job parks, then yank it and reassemble its full image
 * through the chunk reader into @p image.
 */
void
parkAndYankImage(JobService &service, JobId &id,
                 std::vector<std::uint8_t> &image)
{
    JobSpec low;
    low.workload = "needle";
    low.scale = 2;
    const auto submitted = service.submit(low, Priority::Low);
    ASSERT_TRUE(submitted.ok()) << submitted.error;
    id = submitted.id;
    spinUntil(
        [&] { return service.query(id).state != JobState::Queued; },
        "low job never started");
    // Two long preemptors: the first parks the victim, the second
    // keeps the single worker busy so the victim is still parked when
    // the poll below observes it (a tiny preemptor would let it resume
    // within a millisecond).
    JobSpec high;
    high.workload = "needle";
    high.scale = 2;
    for (int n = 0; n < 2; ++n) {
        const auto preemptor = service.submit(high, Priority::High);
        ASSERT_TRUE(preemptor.ok()) << preemptor.error;
    }
    spinUntil(
        [&] { return service.query(id).state == JobState::Parked; },
        "low job never parked");

    const JobService::YankOutcome yanked = service.yank(id);
    ASSERT_TRUE(yanked.ok) << yanked.error;
    ASSERT_TRUE(yanked.hasImage);
    ASSERT_GT(yanked.imageBytes, 0u);
    EXPECT_EQ(service.query(id).state, JobState::Migrated);

    std::uint64_t offset = 0;
    for (;;) {
        std::vector<std::uint8_t> chunk;
        std::uint64_t total = 0;
        std::string error;
        ASSERT_TRUE(service.readImageChunk(id, offset, 4096, chunk,
                                           total, error))
            << error;
        EXPECT_EQ(total, yanked.imageBytes);
        if (chunk.empty())
            break;
        image.insert(image.end(), chunk.begin(), chunk.end());
        offset += chunk.size();
    }
    EXPECT_EQ(image.size(), yanked.imageBytes);
}

TEST(CheckpointPortability, ImageRestoresByteIdenticallyElsewhere)
{
    const KernelStats oracle = runUninterrupted("needle", 2);

    // Park on service A and pull the image two ways: the chunked
    // migration reads and the raw spool file. They must agree byte for
    // byte — what lands on the target daemon is exactly what the
    // source parked.
    const std::string spool_a = tempDir("port-a");
    std::vector<std::uint8_t> image;
    {
        ServiceConfig config;
        config.workers = 1;
        config.preemptEvery = 500;
        config.spoolDir = spool_a;
        JobService service(config);
        JobId id = 0;
        parkAndYankImage(service, id, image);
        if (::testing::Test::HasFatalFailure())
            return;

        std::string ckpt_file;
        for (const auto &entry :
             std::filesystem::directory_iterator(spool_a)) {
            if (entry.path().extension() == ".ckpt")
                ckpt_file = entry.path().string();
        }
        ASSERT_FALSE(ckpt_file.empty()) << "no parked image in spool";
        std::ifstream is(ckpt_file, std::ios::binary);
        std::vector<std::uint8_t> on_disk(
            (std::istreambuf_iterator<char>(is)),
            std::istreambuf_iterator<char>());
        EXPECT_EQ(image, on_disk)
            << "chunked reads diverge from the parked image";

        std::string error;
        EXPECT_TRUE(service.releaseImage(id, error)) << error;
        EXPECT_FALSE(std::filesystem::exists(ckpt_file))
            << "released image still on disk";
        service.shutdown();
    }

    // Restore the shipped bytes on a freshly constructed instance with
    // its own spool: the resumed run must finish bit-identical to the
    // uninterrupted oracle.
    const std::string spool_b = tempDir("port-b");
    const std::string staged = spool_b + "/migrated.ckpt";
    {
        std::ofstream os(staged, std::ios::binary);
        os.write(reinterpret_cast<const char *>(image.data()),
                 std::streamsize(image.size()));
        ASSERT_TRUE(os.good());
    }
    ServiceConfig config;
    config.workers = 1;
    config.preemptEvery = 500;
    config.spoolDir = spool_b;
    JobService service(config);
    JobSpec resumed;
    resumed.workload = "needle";
    resumed.scale = 2;
    resumed.resumeFrom = staged;
    const auto submitted = service.submit(resumed, Priority::Normal);
    ASSERT_TRUE(submitted.ok()) << submitted.error;
    const JobSnapshot done = service.wait(submitted.id);
    ASSERT_EQ(done.state, JobState::Done) << done.failureReason;
    EXPECT_TRUE(done.verified);
    expectIdenticalStats(done.stats, oracle,
                         "restored from shipped image");
    service.shutdown();
}

TEST(CheckpointPortability, ResumeFromRejectsBadImages)
{
    ServiceConfig config;
    config.workers = 1;
    config.spoolDir = tempDir("port-bad");
    JobService service(config);
    JobSpec spec;
    spec.workload = "vecadd";
    spec.resumeFrom = config.spoolDir + "/does-not-exist.ckpt";
    EXPECT_FALSE(service.submit(spec, Priority::Normal).ok());
    // A restore point is mid-run; trace recording is not.
    spec.recordTrace = config.spoolDir + "/trace.jsonl";
    EXPECT_FALSE(service.submit(spec, Priority::Normal).ok());
    service.shutdown();
}

// --------------------------------------------------------------------
// Coordinator: dispatch, steal, migrate, backpressure
// --------------------------------------------------------------------

/** One in-process fabric daemon: JobService + TCP Daemon + NodeAgent. */
struct FabricNode
{
    FabricNode(const std::string &name, std::uint16_t coord_port,
               Cycle preempt_every)
    {
        ServiceConfig config;
        config.workers = 1;
        config.preemptEvery = preempt_every;
        config.spoolDir = tempDir("node-" + name);
        service = std::make_unique<JobService>(config);
        DaemonConfig dc;
        dc.tcp = HostPort{"127.0.0.1", 0};
        dc.tcpEnabled = true;
        dc.authToken = kToken;
        daemon = std::make_unique<Daemon>(*service, dc);
        daemon->start();
        serveThread = std::thread([this] { daemon->serve(); });
        NodeAgentConfig ac;
        ac.node = name;
        ac.coordinator = HostPort{"127.0.0.1", coord_port};
        ac.advertise = HostPort{"127.0.0.1", daemon->boundTcpPort()};
        ac.token = kToken;
        ac.heartbeatMs = 25;
        agent = std::make_unique<NodeAgent>(*service, ac);
        agent->start();
    }

    ~FabricNode()
    {
        agent->stop();
        daemon->requestStop();
        serveThread.join();
        daemon.reset();
        service->shutdown();
    }

    std::unique_ptr<JobService> service;
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<NodeAgent> agent;
    std::thread serveThread;
};

class CoordinatorFixture : public ::testing::Test
{
  protected:
    void
    StartCoordinator(CoordinatorConfig config)
    {
        config.listen = HostPort{"127.0.0.1", 0};
        config.authToken = kToken;
        coord_ = std::make_unique<Coordinator>(std::move(config));
        coord_->start();
        serveThread_ = std::thread([this] { coord_->serve(); });
        client_ = std::make_unique<Client>(
            HostPort{"127.0.0.1", coord_->boundPort()}, kToken);
    }

    void
    TearDown() override
    {
        client_.reset();
        nodes_.clear(); // Daemons down before the coordinator.
        if (coord_) {
            coord_->requestStop();
            serveThread_.join();
            coord_.reset();
        }
    }

    std::uint64_t
    submit(const std::string &workload, std::uint32_t scale,
           const char *priority, const char *affinity = nullptr,
           const char *tenant = nullptr)
    {
        Json::Object o;
        o["op"] = Json("submit");
        o["workload"] = Json(workload);
        o["scale"] = Json(scale);
        o["priority"] = Json(priority);
        if (affinity)
            o["affinity"] = Json(affinity);
        if (tenant)
            o["tenant"] = Json(tenant);
        const Json reply = client_->request(Json(std::move(o)));
        lastReply_ = reply;
        if (const Json *ok = reply.find("ok");
            ok && ok->isBool() && ok->asBool())
            return std::uint64_t(reply.find("job")->asInt());
        return 0;
    }

    std::string
    fabricState(std::uint64_t gid)
    {
        Json::Object o;
        o["op"] = Json("query");
        o["job"] = Json(gid);
        const Json reply = client_->request(Json(std::move(o)));
        const Json *state = reply.find("state");
        return state && state->isString() ? state->asString() : "";
    }

    Json
    waitDone(std::uint64_t gid)
    {
        Json::Object o;
        o["op"] = Json("wait");
        o["job"] = Json(gid);
        return client_->request(Json(std::move(o)));
    }

    std::unique_ptr<Coordinator> coord_;
    std::thread serveThread_;
    std::unique_ptr<Client> client_;
    std::vector<std::unique_ptr<FabricNode>> nodes_;
    Json lastReply_;
};

TEST_F(CoordinatorFixture, MigratesParkedJobAndStealsQueuedWork)
{
    const KernelStats victim_oracle = runUninterrupted("bfs", 3);
    const KernelStats high_oracle = runUninterrupted("bfs", 2);

    CoordinatorConfig config;
    config.heartbeatTimeoutMs = 10000; // No false node-loss under load.
    StartCoordinator(config);
    nodes_.push_back(
        std::make_unique<FabricNode>("a", coord_->boundPort(), 500));

    // A long low-priority job lands on the only node and starts.
    const std::uint64_t low = submit("bfs", 3, "low", "a");
    ASSERT_NE(low, 0u) << lastReply_.dump();
    spinUntil([&] { return fabricState(low) == "running"; },
              "low job never ran on node a");

    // High-priority work preempts it: the low job parks with a
    // vtsim-ckpt-v1 image on node a's spool, and the queued highs keep
    // node a busy (and its queue deep) while it stays parked.
    std::vector<std::uint64_t> highs;
    for (int n = 0; n < 4; ++n) {
        highs.push_back(submit("bfs", 2, "high", "a"));
        ASSERT_NE(highs.back(), 0u) << lastReply_.dump();
    }
    spinUntil([&] { return fabricState(low) == "parked"; },
              "low job never parked");

    // Only now does an idle node appear: the steal round must prefer
    // the parked victim and migrate its image to node b.
    nodes_.push_back(
        std::make_unique<FabricNode>("b", coord_->boundPort(), 500));
    spinUntil([&] { return coord_->migrations() >= 1; },
              "parked job never migrated to the idle node");

    // The migrated job resumes on b and finishes bit-identical to the
    // uninterrupted oracle.
    const Json done = waitDone(low);
    ASSERT_EQ(done.find("state")->asString(), "done") << done.dump();
    ASSERT_NE(done.find("node"), nullptr);
    EXPECT_EQ(done.find("node")->asString(), "b");
    expectIdenticalStats(
        service::kernelStatsFromJson(*done.find("stats")),
        victim_oracle, "migrated job");

    // Once b drains, the steal round pulls queued high jobs off a's
    // deep queue; a stolen job reruns from scratch elsewhere and
    // deterministic simulation keeps its results identical. A steal
    // needs b idle while a still has queued work, so keep a's queue
    // non-empty until one happens: whenever a's newest high job starts,
    // submit another (a fixed number at most).
    constexpr int maxExtraHighs = 16;
    for (int extra = 0; coord_->steals() < 1 && extra < maxExtraHighs;
         ++extra) {
        const std::uint64_t gid = submit("bfs", 2, "high", "a");
        ASSERT_NE(gid, 0u) << lastReply_.dump();
        highs.push_back(gid);
        spinUntil(
            [&] {
                if (coord_->steals() >= 1)
                    return true;
                const std::string state = fabricState(gid);
                return state == "running" || state == "done";
            },
            "an extra high job never started");
    }
    spinUntil([&] { return coord_->steals() >= 1; },
              "no queued job was ever stolen by the idle node");
    for (const std::uint64_t gid : highs) {
        const Json r = waitDone(gid);
        ASSERT_EQ(r.find("state")->asString(), "done") << r.dump();
        expectIdenticalStats(
            service::kernelStatsFromJson(*r.find("stats")),
            high_oracle, "high-priority batch");
    }
    EXPECT_GE(coord_->dispatches(), 5u);
}

TEST_F(CoordinatorFixture, TokenBucketAndQuotaPushBack)
{
    CoordinatorConfig config;
    config.tenantRate = 0.001; // Refills essentially never.
    config.tenantBurst = 1.0;
    StartCoordinator(config);

    ASSERT_NE(submit("vecadd", 1, "normal", nullptr, "t1"), 0u)
        << lastReply_.dump();
    EXPECT_EQ(submit("vecadd", 1, "normal", nullptr, "t1"), 0u);
    EXPECT_EQ(lastReply_.find("rejected")->asString(), "throttled");
    ASSERT_NE(lastReply_.find("retry_after_ms"), nullptr);
    EXPECT_GT(lastReply_.find("retry_after_ms")->asInt(), 0);
    // Another tenant's bucket is untouched: fair-share isolation.
    EXPECT_NE(submit("vecadd", 1, "normal", nullptr, "t2"), 0u);
    EXPECT_GE(coord_->throttles(), 1u);
}

TEST_F(CoordinatorFixture, BacklogBoundRejectsBusy)
{
    CoordinatorConfig config;
    config.maxBacklog = 2; // No nodes: everything stays pending.
    StartCoordinator(config);
    ASSERT_NE(submit("vecadd", 1, "normal"), 0u);
    ASSERT_NE(submit("vecadd", 1, "normal"), 0u);
    EXPECT_EQ(submit("vecadd", 1, "normal"), 0u);
    EXPECT_EQ(lastReply_.find("rejected")->asString(), "busy");
    EXPECT_GT(lastReply_.find("retry_after_ms")->asInt(), 0);
}

TEST_F(CoordinatorFixture, StatusReportsFleetAndTenants)
{
    StartCoordinator(CoordinatorConfig{});
    nodes_.push_back(
        std::make_unique<FabricNode>("a", coord_->boundPort(), 0));
    spinUntil(
        [&] {
            const Json status = coord_->statusJson();
            return !status.find("fabric")
                        ->find("nodes")
                        ->asArray()
                        .empty();
        },
        "node a never registered");
    const std::uint64_t gid = submit("vecadd", 2, "normal", "a", "t9");
    ASSERT_NE(gid, 0u) << lastReply_.dump();
    const Json done = waitDone(gid);
    ASSERT_EQ(done.find("state")->asString(), "done") << done.dump();

    const Json status = coord_->statusJson();
    const Json *fabric = status.find("fabric");
    ASSERT_NE(fabric, nullptr);
    const auto &nodes = fabric->find("nodes")->asArray();
    ASSERT_EQ(nodes.size(), 1u);
    EXPECT_EQ(nodes[0].find("node")->asString(), "a");
    EXPECT_TRUE(nodes[0].find("alive")->asBool());
    EXPECT_EQ(nodes[0].find("workers")->asInt(), 1);
    const auto &tenants = fabric->find("tenants")->asArray();
    ASSERT_EQ(tenants.size(), 1u);
    EXPECT_EQ(tenants[0].find("tenant")->asString(), "t9");
    EXPECT_EQ(fabric->find("jobs")->find("completed")->asInt(), 1);

    // The Prometheus surface carries the same counters.
    const std::string metrics = coord_->metricsText();
    EXPECT_NE(metrics.find("vtsim_fabric_dispatches"),
              std::string::npos)
        << metrics;
}

} // namespace
} // namespace vtsim
