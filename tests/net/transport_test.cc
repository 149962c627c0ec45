// Loopback transport tests: a shard server + ShardClient pair must be an
// observable no-op relative to direct ParameterServer calls — same parameter
// bytes, same versions, same scheduler decisions — and must survive injected
// drop / delay / duplicate faults without hanging.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "core/scheduler.h"
#include "core/speculation.h"
#include "fault/fault_plan.h"
#include "net/endpoint.h"
#include "net/event_loop_server.h"
#include "net/shard_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/span_recorder.h"
#include "optim/lr_schedule.h"
#include "ps/param_store.h"

namespace specsync::net {
namespace {

std::shared_ptr<const SgdApplier> UnitApplier() {
  return std::make_shared<SgdApplier>(std::make_shared<ConstantSchedule>(1.0));
}

std::unique_ptr<ParameterServer> MakeStore(std::size_t dim,
                                           std::size_t num_shards) {
  auto store = std::make_unique<ParameterServer>(dim, num_shards,
                                                 UnitApplier());
  DenseVector params(dim);
  std::iota(params.begin(), params.end(), 1.0);
  store->SetParams(std::move(params));
  return store;
}

ShardClientConfig ClientConfigFor(const ParameterServer& store,
                                  std::uint16_t port) {
  ShardClientConfig config;
  const Endpoint endpoint{"127.0.0.1", port};
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    const ShardInfo info = store.shard(s);
    config.topology.shards.push_back(
        ShardPlacement{info.offset, info.length, endpoint});
  }
  return config;
}

// Builds + starts a shard server for `store`.
std::unique_ptr<EventLoopServer> StartServer(ParameterServer* store,
                                             ShardServerConfig config = {}) {
  auto server = std::make_unique<EventLoopServer>(store, std::move(config));
  EXPECT_TRUE(server->Start());
  return server;
}

// The behavioral suite is value-parameterized over the server implementation,
// with the event loop as its one value, so every case keeps its name,
// Models/TransportTest.<Case>/EventLoop. gtest prints the parameter's bytes
// into that name, hence the explicit enumerator value.
enum class ServerImpl : std::int32_t { kEventLoop = 1 };

class TransportTest : public ::testing::TestWithParam<ServerImpl> {};

INSTANTIATE_TEST_SUITE_P(Models, TransportTest,
                         ::testing::Values(ServerImpl::kEventLoop),
                         [](const ::testing::TestParamInfo<ServerImpl>&) {
                           return std::string("EventLoop");
                         });

TEST_P(TransportTest, ServerStartStopIsClean) {
  auto store = MakeStore(10, 3);
  auto server = StartServer(store.get());
  EXPECT_GT(server->port(), 0);
  server->Stop();
  server->Stop();  // idempotent
}

TEST_P(TransportTest, TwoServersGetDistinctEphemeralPorts) {
  auto store = MakeStore(10, 2);
  auto a = StartServer(store.get());
  auto b = StartServer(store.get());
  EXPECT_NE(a->port(), b->port());
}

TEST_P(TransportTest, PullMatchesDirectPullBitwise) {
  auto store = MakeStore(17, 4);
  auto server = StartServer(store.get());
  ShardClient client(ClientConfigFor(*store, server->port()));
  ASSERT_TRUE(client.Connect());
  EXPECT_EQ(client.num_links(), 1u);  // 4 shards, one endpoint, one socket

  const PullResult direct = store->Pull();
  const PullResult wire = client.Pull();
  EXPECT_EQ(wire.params, direct.params);
  EXPECT_EQ(wire.version, direct.version);

  const ShardPullResult shard_direct = store->PullShard(2);
  const ShardPullResult shard_wire = client.PullShard(2);
  EXPECT_EQ(shard_wire.offset, shard_direct.offset);
  EXPECT_EQ(shard_wire.params, shard_direct.params);
  EXPECT_EQ(shard_wire.shard_version, shard_direct.shard_version);
  EXPECT_EQ(shard_wire.version, shard_direct.version);
}

TEST_P(TransportTest, PullIsOneRequestPerServer) {
  // Shards interleaved across two endpoints (one store behind two servers,
  // each serving every other shard): every Pull() costs exactly one request
  // per link, delta on or off, and composes the store's own snapshot.
  auto store = MakeStore(101, 5);
  ShardServerConfig even_config;
  even_config.served_shards = {0, 2, 4};
  auto even = StartServer(store.get(), std::move(even_config));
  ShardServerConfig odd_config;
  odd_config.served_shards = {1, 3};
  auto odd = StartServer(store.get(), std::move(odd_config));

  for (const char* codec : {"none", "delta"}) {
    ShardClientConfig config = ClientConfigFor(*store, even->port());
    for (std::size_t s = 1; s < store->num_shards(); s += 2) {
      config.topology.shards[s].endpoint.port = odd->port();
    }
    config.compression = *CompressionSpec::Parse(codec);
    obs::MetricsRegistry metrics;
    ShardClient client(config, nullptr, &metrics);
    ASSERT_TRUE(client.Connect());
    ASSERT_EQ(client.num_links(), 2u);

    Gradient g = Gradient::Sparse();
    g.sparse().Add(50, 0.5);  // moves one shard between pulls
    constexpr int kRounds = 3;
    for (int round = 0; round < kRounds; ++round) {
      const std::uint64_t before = client.stats().requests;
      const PullResult wire = client.Pull();
      EXPECT_EQ(client.stats().requests - before, client.num_links())
          << codec << " round " << round;
      const PullResult direct = store->Pull();
      EXPECT_EQ(wire.params, direct.params) << codec << " round " << round;
      EXPECT_EQ(wire.version, direct.version) << codec << " round " << round;
      store->Push(g, 0);
    }
    // RTT is per link: one sample per pull on each.
    for (const EventLoopServer* server : {even.get(), odd.get()}) {
      const std::string label =
          "{link=127.0.0.1:" + std::to_string(server->port()) + "}";
      EXPECT_EQ(metrics.histogram("net.link.rtt_s" + label).count(),
                static_cast<std::uint64_t>(kRounds))
          << codec << ' ' << label;
    }
  }
}

TEST(PullBatchPlanTest, SplitsALinksShardsOnlyToStayUnderTheCap) {
  // Two endpoints, shards interleaved; lengths 4/4/4/2/1 (36 + 8n payload
  // bytes per full item, plus its kind byte).
  ClusterTopology topology;
  const Endpoint a{"127.0.0.1", 1};
  const Endpoint b{"127.0.0.1", 2};
  const std::size_t lengths[] = {4, 4, 4, 2, 1};
  const Endpoint* owners[] = {&a, &b, &a, &a, &b};
  std::size_t offset = 0;
  for (std::size_t s = 0; s < 5; ++s) {
    topology.shards.push_back({offset, lengths[s], *owners[s]});
    offset += lengths[s];
  }
  using Batches = std::vector<std::vector<std::size_t>>;
  // Under the real cap: one batch per link, ordered by first shard.
  EXPECT_EQ(PlanPullBatches(topology), (Batches{{0, 2, 3}, {1, 4}}));

  const std::size_t item4 = PullBatchFullItemBytes(4);  // 69
  const std::size_t item2 = PullBatchFullItemBytes(2);  // 53
  // Exactly enough for link a's three shards in one response.
  const std::size_t all_a = kPullBatchRespHeadBytes + 2 * item4 + item2;
  EXPECT_EQ(PlanPullBatches(topology, all_a), (Batches{{0, 2, 3}, {1, 4}}));
  // One byte less: link a splits before the shard that overflows it.
  EXPECT_EQ(PlanPullBatches(topology, all_a - 1),
            (Batches{{0, 2}, {1, 4}, {3}}));
  // Room for a 4-wide and a 1-wide shard: only link b's pair shares one.
  EXPECT_EQ(PlanPullBatches(topology, kPullBatchRespHeadBytes + item4 +
                                          PullBatchFullItemBytes(1)),
            (Batches{{0}, {1, 4}, {2}, {3}}));
  // A cap below any one shard: each shard alone, none dropped.
  EXPECT_EQ(PlanPullBatches(topology, 1), (Batches{{0}, {1}, {2}, {3}, {4}}));
}

// The scripted op timeline: one deterministic sequence of pulls and pushes
// (dense, sparse spanning a shard boundary, empty) executed once directly
// and once over the wire. Every observation — pulled bytes, versions, and
// the scheduler decisions the observations drive — must be identical.
struct OpObservation {
  std::vector<double> pulled;
  std::uint64_t pull_version = 0;
  std::uint64_t push_version = 0;
};

template <typename PullFn, typename PushFn>
std::vector<OpObservation> RunScriptedTimeline(PullFn pull, PushFn push) {
  std::vector<OpObservation> log;
  const auto observe_pull = [&] {
    OpObservation obs;
    PullResult r = pull();
    obs.pulled = std::move(r.params);
    obs.pull_version = r.version;
    log.push_back(std::move(obs));
  };
  const auto observe_push = [&](const Gradient& g, EpochId epoch) {
    OpObservation obs;
    obs.push_version = push(g, epoch);
    log.push_back(std::move(obs));
  };

  observe_pull();
  Gradient dense = Gradient::Dense(10);
  for (std::size_t i = 0; i < 10; ++i) dense.dense()[i] = 0.25 * (i + 1);
  observe_push(dense, 0);
  observe_pull();

  Gradient boundary = Gradient::Sparse();  // spans the [0,4)/[4,7) boundary
  boundary.sparse().Add(3, 1.0);
  boundary.sparse().Add(4, -1.0);
  boundary.sparse().Add(9, 0.5);
  observe_push(boundary, 1);
  observe_pull();

  Gradient empty = Gradient::Sparse();  // still one logical push
  observe_push(empty, 1);
  observe_push(dense, 2);
  observe_pull();
  return log;
}

// Replays the observed timeline as scheduler input: each pull observation is
// a HandlePull, each push observation a HandleNotify whose timing is derived
// from the observed version (so any transport-level divergence in versions
// changes the decisions). Returns a printable decision trace.
std::string SchedulerDecisions(const std::vector<OpObservation>& log) {
  SchedulerConfig config;
  config.num_workers = 2;
  config.initial_params.abort_time = Duration::Milliseconds(50.0);
  config.initial_params.abort_rate = 0.5;
  SpecSyncScheduler scheduler(
      config,
      std::make_unique<FixedSpeculationPolicy>(config.initial_params));
  std::string trace;
  IterationId iteration = 0;
  SimTime now = SimTime::FromSeconds(0.0);
  for (const OpObservation& obs : log) {
    now = now + Duration::Milliseconds(10.0);
    if (!obs.pulled.empty() || obs.pull_version > 0 || obs.push_version == 0) {
      scheduler.HandlePull(obs.pull_version % config.num_workers, now);
      trace += "pull@" + std::to_string(obs.pull_version) + ";";
      continue;
    }
    const WorkerId worker = obs.push_version % config.num_workers;
    auto request = scheduler.HandleNotify(worker, iteration++, now);
    if (request.has_value()) {
      const SimTime fire = now + request->delay;
      const bool resync =
          scheduler.HandleCheckTimer(worker, request->token, fire);
      trace += "check@" + std::to_string(request->delay.milliseconds()) +
               (resync ? "!resync;" : ";");
    } else {
      trace += "nocheck;";
    }
  }
  return trace;
}

TEST_P(TransportTest, LoopbackTimelineIsEquivalentToInProcess) {
  // Direct run.
  auto direct_store = MakeStore(10, 3);
  const auto direct_log = RunScriptedTimeline(
      [&] { return direct_store->Pull(); },
      [&](const Gradient& g, EpochId e) { return direct_store->Push(g, e); });

  // Wire run against an identically initialized store.
  auto wire_store = MakeStore(10, 3);
  auto server = StartServer(wire_store.get());
  ShardClient client(ClientConfigFor(*wire_store, server->port()));
  ASSERT_TRUE(client.Connect());
  const auto wire_log = RunScriptedTimeline(
      [&] { return client.Pull(); },
      [&](const Gradient& g, EpochId e) { return client.Push(g, e); });

  // Identical final store state, bit for bit.
  EXPECT_EQ(wire_store->Snapshot(), direct_store->Snapshot());
  EXPECT_EQ(wire_store->version(), direct_store->version());
  for (std::size_t s = 0; s < direct_store->num_shards(); ++s) {
    EXPECT_EQ(wire_store->shard(s).version, direct_store->shard(s).version)
        << "shard " << s;
  }

  // Identical per-op observations.
  ASSERT_EQ(wire_log.size(), direct_log.size());
  for (std::size_t i = 0; i < direct_log.size(); ++i) {
    EXPECT_EQ(wire_log[i].pulled, direct_log[i].pulled) << "op " << i;
    EXPECT_EQ(wire_log[i].pull_version, direct_log[i].pull_version)
        << "op " << i;
    EXPECT_EQ(wire_log[i].push_version, direct_log[i].push_version)
        << "op " << i;
  }

  // Identical scheduler decisions when the observations drive the protocol.
  EXPECT_EQ(SchedulerDecisions(wire_log), SchedulerDecisions(direct_log));
}

TEST_P(TransportTest, SparsePushAcrossShardBoundary) {
  auto store = MakeStore(10, 2);  // shards [0,5) and [5,10)
  auto server = StartServer(store.get());
  ShardClient client(ClientConfigFor(*store, server->port()));
  ASSERT_TRUE(client.Connect());

  Gradient g = Gradient::Sparse();
  g.sparse().Add(4, 10.0);  // last index of shard 0
  g.sparse().Add(5, 20.0);  // first index of shard 1
  EXPECT_EQ(client.Push(g, 0), 1u);

  const DenseVector params = store->Snapshot();
  EXPECT_DOUBLE_EQ(params[4], 5.0 - 10.0);  // iota init minus lr=1 gradient
  EXPECT_DOUBLE_EQ(params[5], 6.0 - 20.0);
  EXPECT_EQ(store->shard(0).version, 1u);
  EXPECT_EQ(store->shard(1).version, 1u);
  EXPECT_EQ(store->version(), 1u);
}

TEST_P(TransportTest, EmptyGradientPushStillCommits) {
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  ShardClient client(ClientConfigFor(*store, server->port()));
  ASSERT_TRUE(client.Connect());
  EXPECT_EQ(client.Push(Gradient::Sparse(), 0), 1u);
  EXPECT_EQ(store->version(), 1u);
  EXPECT_EQ(store->shard(0).version, 0u);  // empty slice touches nothing
}

TEST_P(TransportTest, UnservedShardAnsweredWithBadShardAck) {
  auto store = MakeStore(10, 2);
  ShardServerConfig config;
  config.served_shards = {0};  // this server owns shard 0 only
  auto server = StartServer(store.get(), std::move(config));

  TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());
  const auto frame = EncodeFrame(PullShardReq{1}, 77);
  ASSERT_TRUE(conn.SendAll(frame));
  std::vector<std::uint8_t> reply;
  ASSERT_EQ(conn.RecvFrame(reply,
                           std::chrono::steady_clock::now() +
                               std::chrono::seconds(5)),
            TcpConnection::RecvStatus::kFrame);
  std::uint64_t id = 0;
  WireMessage out;
  ASSERT_EQ(DecodeFrame(reply, id, out), WireStatus::kOk);
  EXPECT_EQ(id, 77u);
  ASSERT_TRUE(std::holds_alternative<AckResp>(out));
  EXPECT_EQ(std::get<AckResp>(out).status, kAckBadShard);
  EXPECT_EQ(server->stats().rejected, 1u);
}

TEST_P(TransportTest, MalformedFrameKillsOnlyItsConnection) {
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());

  // Connection 1 sends garbage with a valid-looking length and dies.
  TcpConnection bad = TcpConnection::ConnectLoopback(server->port());
  ASSERT_TRUE(bad.valid());
  std::vector<std::uint8_t> garbage(kHeaderBytes, 0xff);
  ASSERT_TRUE(bad.SendAll(garbage));
  std::vector<std::uint8_t> reply;
  EXPECT_EQ(bad.RecvFrame(reply,
                          std::chrono::steady_clock::now() +
                              std::chrono::seconds(5)),
            TcpConnection::RecvStatus::kClosed);

  // The server keeps serving new clients.
  ShardClient client(ClientConfigFor(*store, server->port()));
  ASSERT_TRUE(client.Connect());
  EXPECT_EQ(client.Pull().params, store->Pull().params);
  EXPECT_GE(server->stats().bad_frames, 1u);
}

TEST_P(TransportTest, ReconnectsAfterServerRestartOnSamePort) {
  auto store = MakeStore(12, 3);
  auto first = StartServer(store.get());
  const std::uint16_t port = first->port();

  ShardClientConfig client_config = ClientConfigFor(*store, port);
  client_config.request_timeout = std::chrono::milliseconds(100);
  client_config.max_attempts = 64;
  ShardClient client(client_config);
  ASSERT_TRUE(client.Connect());
  EXPECT_EQ(client.Pull().params, store->Pull().params);

  // Restart on the same port (SO_REUSEADDR makes the rebind immediate). The
  // client's link dies with the first server; the next request must notice,
  // reconnect, and succeed — no new ShardClient.
  first->Stop();
  ShardServerConfig restart_config;
  restart_config.bind.port = port;
  auto second = StartServer(store.get(), std::move(restart_config));
  ASSERT_EQ(second->port(), port);

  EXPECT_EQ(client.Pull().params, store->Pull().params);
  EXPECT_GE(client.stats().reconnects, 1u);
}

// The join-while-accepting audit: Stop() racing live connection churn must
// join the accept thread before reaping connections, never deadlock, and
// never crash. Hammered across repeated start/stop rounds with raw
// connections arriving the whole time, plus concurrent Stop() callers.
TEST_P(TransportTest, StartStopSurvivesConnectionHammer) {
  auto store = MakeStore(16, 2);
  for (int round = 0; round < 8; ++round) {
    auto server = StartServer(store.get());
    const std::uint16_t port = server->port();
    std::atomic<bool> quit{false};
    std::vector<std::jthread> hammers;
    for (int t = 0; t < 4; ++t) {
      hammers.emplace_back([&, t] {
        const auto frame = EncodeFrame(PullShardReq{0}, 1 + t);
        while (!quit.load(std::memory_order_relaxed)) {
          TcpConnection conn = TcpConnection::ConnectLoopback(port);
          if (!conn.valid()) continue;  // server already gone this round
          if (!conn.SendAll(frame)) continue;
          std::vector<std::uint8_t> reply;
          (void)conn.RecvFrame(reply, std::chrono::steady_clock::now() +
                                          std::chrono::milliseconds(100));
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // Two concurrent stoppers while connections keep arriving.
    std::jthread other_stopper([&] { server->Stop(); });
    server->Stop();
    other_stopper.join();
    quit.store(true);
    hammers.clear();
    server->Stop();  // idempotent after the storm
  }
}

TEST_P(TransportTest, SurvivesDropDelayDuplicateInjection) {
  auto store = MakeStore(40, 4);
  auto server = StartServer(store.get());

  FaultPlanConfig fault_config;
  fault_config.data.drop_probability = 0.15;
  fault_config.data.delay_probability = 0.15;
  fault_config.data.delay_mean = Duration::Milliseconds(2.0);
  fault_config.data.duplicate_probability = 0.15;
  fault_config.seed = 99;
  FaultPlan faults(fault_config);

  ShardClientConfig client_config = ClientConfigFor(*store, server->port());
  client_config.request_timeout = std::chrono::milliseconds(50);
  client_config.max_attempts = 64;
  ShardClient client(client_config, &faults);
  ASSERT_TRUE(client.Connect());

  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kPushesPerWorker = 10;
  std::vector<std::jthread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      // Each worker gets its own client: independent connections, like
      // independent machines.
      ShardClient mine(client_config, &faults);
      ASSERT_TRUE(mine.Connect());
      Gradient g = Gradient::Dense(40);
      for (std::size_t i = 0; i < 40; ++i) {
        g.dense()[i] = 0.001 * static_cast<double>(w + 1);
      }
      for (std::size_t it = 0; it < kPushesPerWorker; ++it) {
        const PullResult snapshot = mine.Pull();
        ASSERT_EQ(snapshot.params.size(), 40u);
        mine.Push(g, it);
      }
    });
  }
  workers.clear();  // join

  // Pushes are exactly-once: drops, delays and duplicates may cost retries,
  // but every logical push commits exactly one version.
  EXPECT_EQ(store->version(), kWorkers * kPushesPerWorker);
  EXPECT_EQ(server->stats().commits, kWorkers * kPushesPerWorker);
  for (const double v : store->Snapshot()) {
    EXPECT_TRUE(std::isfinite(v));
  }
  const ShardClient::Stats stats = client.stats();
  (void)stats;  // per-worker clients carry the interesting counters
}

// Sends `request` on a raw connection and returns the decoded ack.
AckResp RawAck(TcpConnection& conn, const WireMessage& request,
               std::uint64_t id) {
  EXPECT_TRUE(conn.SendAll(EncodeFrame(request, id)));
  std::vector<std::uint8_t> reply;
  EXPECT_EQ(conn.RecvFrame(reply, std::chrono::steady_clock::now() +
                                      std::chrono::seconds(5)),
            TcpConnection::RecvStatus::kFrame);
  std::uint64_t reply_id = 0;
  WireMessage out;
  EXPECT_EQ(DecodeFrame(reply, reply_id, out), WireStatus::kOk);
  EXPECT_EQ(reply_id, id);
  const auto* ack = std::get_if<AckResp>(&out);
  return ack != nullptr ? *ack : AckResp{~0u, 0};
}

PushShardReq SparseSlice(std::uint32_t shard, std::uint64_t index,
                         double value) {
  PushShardReq slice;
  slice.shard = shard;
  slice.sparse = true;
  slice.indices = {index};
  slice.values = {value};
  return slice;
}

TEST_P(TransportTest, StandaloneSliceIsRejectedNotApplied) {
  // A slice outside a batch is not a push: it would bypass the watermark.
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  const DenseVector before = store->Snapshot();
  TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());
  EXPECT_EQ(RawAck(conn, SparseSlice(0, 1, 4.0), 1).status, kAckBadRequest);
  EXPECT_EQ(store->Snapshot(), before);
  EXPECT_EQ(store->shard(0).version, 0u);
  EXPECT_EQ(server->stats().rejected, 1u);
}

TEST_P(TransportTest, BadBatchChangesNothing) {
  // Every slice is validated before any applies: one bad slice anywhere in
  // the batch leaves the store, its versions and the watermark untouched.
  auto store = MakeStore(10, 2);  // shards [0,5) and [5,10)
  ShardServerConfig config;
  config.served_shards = {0};
  auto server = StartServer(store.get(), std::move(config));
  const DenseVector before = store->Snapshot();
  TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());

  const CommitPushReq unserved{9, 1, {SparseSlice(0, 1, 4.0),
                                      SparseSlice(1, 6, 4.0)}};
  const AckResp bad_shard = RawAck(conn, unserved, 1);
  EXPECT_EQ(bad_shard.status, kAckBadShard);
  EXPECT_EQ(bad_shard.value, 1u);

  PushShardReq short_dense;  // shard 0 is 5 wide; ship 4
  short_dense.dense_offset = 0;
  short_dense.dense = {1.0, 1.0, 1.0, 1.0};
  const CommitPushReq bad_length{9, 1, {SparseSlice(0, 1, 4.0), short_dense}};
  EXPECT_EQ(RawAck(conn, bad_length, 2).status, kAckBadRequest);
  EXPECT_EQ(RawAck(conn, CommitPushReq{9, 0, {}}, 3).status, kAckBadRequest)
      << "push_seq 0 is never valid";

  EXPECT_EQ(store->Snapshot(), before);
  EXPECT_EQ(store->version(), 0u);
  EXPECT_EQ(store->shard(0).version, 0u);
  // The rejected seq 1 was never recorded: the same seq still applies.
  const AckResp ok = RawAck(conn, CommitPushReq{9, 1, {SparseSlice(0, 1, 4.0)}},
                            4);
  EXPECT_EQ(ok.status, kAckOk);
  EXPECT_EQ(ok.value, 1u);
  EXPECT_EQ(store->Snapshot()[1], before[1] - 4.0);
}

TEST_P(TransportTest, PullBatchWithAForeignShardReadsNothing) {
  // One shard the server does not own anywhere in a batch refuses the whole
  // batch before any shard is read.
  auto store = MakeStore(10, 2);
  ShardServerConfig config;
  config.served_shards = {0};
  auto server = StartServer(store.get(), std::move(config));
  TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());
  const AckResp ack = RawAck(
      conn, PullBatchReq{{{0, kPullAnyVersion}, {1, kPullAnyVersion}}}, 1);
  EXPECT_EQ(ack.status, kAckBadShard);
  EXPECT_EQ(ack.value, 1u);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.pulls, 0u);
  EXPECT_EQ(stats.rejected, 1u);
}

TEST_P(TransportTest, RepeatedBatchIsAnsweredFromTheWatermark) {
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());

  const CommitPushReq first{5, 1, {SparseSlice(0, 2, 1.0)}};
  const CommitPushReq second{5, 2, {SparseSlice(1, 7, 1.0)}};
  EXPECT_EQ(RawAck(conn, first, 1).value, 1u);
  EXPECT_EQ(RawAck(conn, first, 2).value, 1u) << "retry: cached ack";
  EXPECT_EQ(RawAck(conn, second, 3).value, 2u);
  // A stale copy of an older push gets the latest cached ack, applies nothing.
  EXPECT_EQ(RawAck(conn, first, 4).value, 2u);
  // Another client's seq 1 is its own push.
  EXPECT_EQ(RawAck(conn, CommitPushReq{6, 1, {SparseSlice(0, 2, 1.0)}}, 5)
                .value,
            3u);

  EXPECT_EQ(store->version(), 3u);
  EXPECT_EQ(store->Snapshot()[2], 3.0 - 2.0);
  EXPECT_EQ(store->Snapshot()[7], 8.0 - 1.0);
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.commits, 3u);
  EXPECT_EQ(stats.duplicate_pushes, 2u);
}

TEST_P(TransportTest, UnreachableShardIsDiagnosed) {
  auto store = MakeStore(10, 1);
  auto server = StartServer(store.get());

  FaultPlanConfig fault_config;
  fault_config.data.drop_probability = 1.0;
  FaultPlan faults(fault_config);
  ShardClientConfig client_config = ClientConfigFor(*store, server->port());
  client_config.request_timeout = std::chrono::milliseconds(10);
  client_config.max_attempts = 3;
  ShardClient client(client_config, &faults);
  ASSERT_TRUE(client.Connect());
  try {
    client.Push(Gradient::Sparse(), 0);
    FAIL() << "an all-drop link must exhaust its attempts";
  } catch (const CheckError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("shard 0 at 127.0.0.1:" +
                           std::to_string(server->port())),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("after 3 attempts"), std::string::npos) << message;
    EXPECT_NE(message.find("acked at global version 0"), std::string::npos)
        << message;
  }
  EXPECT_EQ(store->version(), 0u);
}

TEST_P(TransportTest, LostServerReportsLastAckedPushVersion) {
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  ShardClientConfig client_config = ClientConfigFor(*store, server->port());
  client_config.request_timeout = std::chrono::milliseconds(20);
  client_config.max_attempts = 4;
  ShardClient client(client_config);
  ASSERT_TRUE(client.Connect());
  Gradient g = Gradient::Sparse();
  g.sparse().Add(7, 1.0);
  EXPECT_EQ(client.Push(g, 0), 1u);
  EXPECT_EQ(client.Push(g, 0), 2u);

  server->Stop();  // the endpoint now refuses every reconnect
  try {
    (void)client.Pull();
    FAIL() << "a stopped server must be reported unreachable";
  } catch (const CheckError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("after 4 attempts"), std::string::npos) << message;
    EXPECT_NE(message.find("acked at global version 2"), std::string::npos)
        << message;
  }
}

TEST_P(TransportTest, ClientStatsCountInjectedFaults) {
  auto store = MakeStore(10, 1);
  auto server = StartServer(store.get());

  FaultPlanConfig fault_config;
  fault_config.data.drop_probability = 1.0;  // every attempt times out
  FaultPlan faults(fault_config);

  ShardClientConfig client_config = ClientConfigFor(*store, server->port());
  client_config.request_timeout = std::chrono::milliseconds(10);
  client_config.max_attempts = 3;
  ShardClient client(client_config, &faults);
  ASSERT_TRUE(client.Connect());
  EXPECT_THROW(client.PullShard(0), CheckError);
  const ShardClient::Stats stats = client.stats();
  EXPECT_EQ(stats.injected_drops, 3u);
  EXPECT_EQ(stats.timeouts, 3u);
  EXPECT_EQ(stats.retries, 2u);
}

TEST_P(TransportTest, RetransmitLedgerCountsRetriesNotGoodput) {
  // Satellite regression for the retry-accounting fix: under a FaultPlan drop
  // schedule the retried frames' bytes must land in the dedicated retransmit
  // ledger (client stat + "net.link.retransmit_bytes" counter) and never stay
  // zero, while a fault-free client's ledger stays exactly zero — goodput is
  // not inflated by a clean link.
  auto store = MakeStore(24, 2);
  auto server = StartServer(store.get());

  {  // Clean link: zero retransmit, by construction.
    ShardClient clean(ClientConfigFor(*store, server->port()));
    ASSERT_TRUE(clean.Connect());
    for (int i = 0; i < 4; ++i) (void)clean.Pull();
    EXPECT_EQ(clean.stats().retransmit_bytes, 0u);
  }

  FaultPlanConfig fault_config;
  fault_config.data.drop_probability = 0.4;
  fault_config.seed = 7;
  FaultPlan faults(fault_config);

  obs::MetricsRegistry metrics;
  ShardClientConfig client_config = ClientConfigFor(*store, server->port());
  client_config.request_timeout = std::chrono::milliseconds(20);
  client_config.max_attempts = 64;
  ShardClient client(client_config, &faults, &metrics);
  ASSERT_TRUE(client.Connect());

  Gradient g = Gradient::Dense(24);
  for (std::size_t i = 0; i < 24; ++i) g.dense()[i] = 0.5;
  for (int it = 0; it < 6; ++it) {
    (void)client.Pull();
    (void)client.Push(g, static_cast<EpochId>(it));
  }

  const ShardClient::Stats stats = client.stats();
  // 40% drops over dozens of requests: some attempt retried with certainty
  // for any reasonable seed (this one verified).
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.retransmit_bytes, 0u);
  const std::string label =
      "{link=127.0.0.1:" + std::to_string(server->port()) + "}";
  EXPECT_EQ(metrics.counter("net.link.retransmit_bytes" + label).value(),
            stats.retransmit_bytes);
}

TEST_P(TransportTest, DuplicateInjectionSecondCopyIsRetransmit) {
  // Every injected duplicate's second copy is pure overhead: it must be
  // charged to the retransmit ledger even though no request ever retried.
  auto store = MakeStore(10, 1);
  auto server = StartServer(store.get());

  FaultPlanConfig fault_config;
  fault_config.data.duplicate_probability = 1.0;
  FaultPlan faults(fault_config);

  ShardClientConfig client_config = ClientConfigFor(*store, server->port());
  ShardClient client(client_config, &faults);
  ASSERT_TRUE(client.Connect());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(client.PullShard(0).params, store->PullShard(0).params);
  }

  const ShardClient::Stats stats = client.stats();
  EXPECT_EQ(stats.injected_duplicates, stats.requests);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_GT(stats.retransmit_bytes, 0u);
}

// --- compression over the wire ----------------------------------------------

TEST_P(TransportTest, DeltaPullServesUnchangedShardsViaNotModified) {
  auto store = MakeStore(12, 3);
  auto server = StartServer(store.get());

  ShardClientConfig client_config = ClientConfigFor(*store, server->port());
  client_config.compression = *CompressionSpec::Parse("delta");
  ShardClient client(client_config);
  ASSERT_TRUE(client.Connect());

  // Cold cache: every shard is a miss shipping the full slice.
  EXPECT_EQ(client.Pull().params, store->Pull().params);
  EXPECT_EQ(client.stats().delta_misses, 3u);
  EXPECT_EQ(client.stats().delta_hits, 0u);

  // Nothing changed: every shard answered not-modified from the cache.
  EXPECT_EQ(client.Pull().params, store->Pull().params);
  EXPECT_EQ(client.stats().delta_hits, 3u);

  // Touch only shard 0 (indices [0,4)): exactly one miss, two hits, and the
  // composed snapshot still matches the store bit for bit.
  Gradient g = Gradient::Sparse();
  g.sparse().Add(1, 2.0);
  store->Push(g, 0);
  EXPECT_EQ(client.Pull().params, store->Pull().params);
  EXPECT_EQ(client.stats().delta_misses, 4u);
  EXPECT_EQ(client.stats().delta_hits, 5u);
}

TEST_P(TransportTest, CodedPushMatchesDirectApplyBitwise) {
  // int8/fp16 ship the compact kind-2 frames; because Transform() already
  // made the gradient idempotent under re-quantization, the wire store must
  // land bit-identical to applying the transformed gradient directly.
  for (const char* literal : {"int8", "fp16"}) {
    const CompressionSpec spec = *CompressionSpec::Parse(literal);
    auto direct_store = MakeStore(10, 3);
    auto wire_store = MakeStore(10, 3);
    auto server = StartServer(wire_store.get());

    ShardClientConfig client_config =
        ClientConfigFor(*wire_store, server->port());
    client_config.compression = spec;
    ShardClient client(client_config);
    ASSERT_TRUE(client.Connect());

    GradientCodec codec(spec, /*num_workers=*/1,
                        ParameterServer::ShardSplit(10, 3));
    Gradient dense = Gradient::Dense(10);
    for (std::size_t i = 0; i < 10; ++i) {
      dense.dense()[i] = 0.3 * static_cast<double>(i) - 1.1;
    }
    Gradient sparse = Gradient::Sparse();
    sparse.sparse().Add(2, -0.0625);
    sparse.sparse().Add(7, 5e-324);  // denormal: flushed to zero identically
    for (Gradient* grad : {&dense, &sparse}) {
      codec.Transform(WorkerId{0}, *grad);
      const std::uint64_t direct_version = direct_store->Push(*grad, 0);
      EXPECT_EQ(client.Push(*grad, 0), direct_version) << literal;
    }
    EXPECT_EQ(wire_store->Snapshot(), direct_store->Snapshot()) << literal;
  }
}

// --- observability ----------------------------------------------------------

TEST_P(TransportTest, PerLinkCountersExportedToRegistry) {
  // Same restart scenario as ReconnectsAfterServerRestartOnSamePort, but the
  // assertion moves to the registry: the client's internal reconnect count
  // must surface as a per-link labeled counter.
  auto store = MakeStore(12, 3);
  auto first = StartServer(store.get());
  const std::uint16_t port = first->port();

  obs::MetricsRegistry metrics;
  ShardClientConfig client_config = ClientConfigFor(*store, port);
  client_config.request_timeout = std::chrono::milliseconds(100);
  client_config.max_attempts = 64;
  ShardClient client(client_config, nullptr, &metrics);
  ASSERT_TRUE(client.Connect());
  EXPECT_EQ(client.Pull().params, store->Pull().params);

  first->Stop();
  ShardServerConfig restart_config;
  restart_config.bind.port = port;
  auto second = StartServer(store.get(), std::move(restart_config));
  ASSERT_EQ(second->port(), port);
  EXPECT_EQ(client.Pull().params, store->Pull().params);

  const std::string label = "{link=127.0.0.1:" + std::to_string(port) + "}";
  const std::uint64_t reconnects =
      metrics.counter("net.link.reconnects" + label).value();
  EXPECT_GE(reconnects, 1u);
  EXPECT_EQ(reconnects, client.stats().reconnects);
  EXPECT_EQ(metrics.counter("net.link.stale_frames" + label).value(),
            client.stats().stale_frames);
  // Every logical request completed once; its RTT lands on its link.
  EXPECT_EQ(metrics.histogram("net.link.rtt_s" + label).count(),
            client.stats().requests);
  // Quiescent client: nothing pending or in flight.
  EXPECT_EQ(metrics.gauge("net.link.pending_depth" + label).value(), 0.0);
  EXPECT_EQ(metrics.gauge("net.link.in_flight" + label).value(), 0.0);
}

TEST_P(TransportTest, ClientAndServerSpansStitchViaFlowIds) {
  // Client and server each record into their own SpanRecorder (as two
  // processes would); every client request span's flow_out id must appear as
  // some server serve span's flow_in id — the in-process version of the
  // >=95% stitch gate bench_transport's merged trace is held to.
  auto store = MakeStore(20, 2);
  obs::SpanRecorder server_spans;
  auto server = std::make_unique<EventLoopServer>(
      store.get(), ShardServerConfig{}, nullptr, &server_spans);
  ASSERT_TRUE(server->Start());

  obs::SpanRecorder client_spans;
  ShardClient client(ClientConfigFor(*store, server->port()), nullptr, nullptr,
                     &client_spans);
  ASSERT_TRUE(client.Connect());

  Gradient g = Gradient::Sparse();
  g.sparse().Add(3, 0.5);
  g.sparse().Add(12, -0.25);
  for (int i = 0; i < 4; ++i) {
    (void)client.Pull();
    (void)client.Push(g, static_cast<EpochId>(i));
  }
  server->Stop();

  std::vector<std::uint64_t> out_ids;
  for (const obs::TraceEvent& event : client_spans.Events()) {
    if (event.category != "net.client") continue;
    EXPECT_NE(event.flow_out, 0u) << event.name;
    out_ids.push_back(event.flow_out);
  }
  // One client span per wire request: 4 rounds x (1 pull batch + 1 push
  // batch), the pull carrying both shards of the one server.
  ASSERT_EQ(out_ids.size(), 8u);

  std::vector<std::uint64_t> in_ids;
  for (const obs::TraceEvent& event : server_spans.Events()) {
    if (event.category != "net.server") continue;
    EXPECT_NE(event.flow_in, 0u) << event.name;
    in_ids.push_back(event.flow_in);
  }
  for (const std::uint64_t id : out_ids) {
    EXPECT_NE(std::find(in_ids.begin(), in_ids.end(), id), in_ids.end())
        << "client flow id 0x" << std::hex << id
        << " has no server-side serve span";
  }
}

TEST_P(TransportTest, EventLoopTelemetryReachesRegistry) {
  auto store = MakeStore(16, 2);
  obs::MetricsRegistry metrics;
  auto server = std::make_unique<EventLoopServer>(
      store.get(), ShardServerConfig{}, &metrics);
  ASSERT_TRUE(server->Start());

  auto client = std::make_unique<ShardClient>(
      ClientConfigFor(*store, server->port()));
  ASSERT_TRUE(client->Connect());
  for (int i = 0; i < 3; ++i) (void)client->Pull();
  EXPECT_EQ(metrics.gauge("net.eloop.conns").value(), 1.0);
  EXPECT_EQ(metrics.counter("net.eloop.accepts").value(), 1u);
  EXPECT_GT(metrics.histogram("net.eloop.pool_wait_s").count(), 0u);
  EXPECT_GT(metrics.histogram("net.eloop.out_queue_s").count(), 0u);
  EXPECT_GT(metrics.histogram("net.eloop.epoll_wait_s").count(), 0u);
  EXPECT_GT(metrics.histogram("net.eloop.dispatch_s").count(), 0u);

  client.reset();  // disconnect: the loop sees EOF and drops the conn
  server->Stop();
  // One residency sample per response (3 pulls, each one batch holding
  // both shards), whether the pool thread wrote it through or the loop
  // flushed it from the queue.
  EXPECT_EQ(metrics.histogram("net.eloop.out_queue_s").count(), 3u);
  // Every byte gauge must return to zero once all connections are gone.
  EXPECT_EQ(metrics.gauge("net.eloop.conns").value(), 0.0);
  EXPECT_EQ(metrics.gauge("net.eloop.reassembly_bytes").value(), 0.0);
  EXPECT_EQ(metrics.gauge("net.eloop.out_queue_bytes").value(), 0.0);
}

// --- Golden 8-worker digest -------------------------------------------------

// Bit-exact digest of the store: every parameter's bit pattern plus the
// global and per-shard version counters.
std::uint64_t StoreDigest(const ParameterServer& store) {
  Fnv1a h;
  for (const double v : store.Snapshot()) h.F64(v);
  h.U64(store.version());
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    h.U64(store.shard(s).version);
  }
  return h.digest();
}

// Deterministic 8-worker schedule, serialized round-robin so the op order —
// and therefore the float application order — is identical however the ops
// travel. Alternates dense pushes with boundary-spanning sparse pushes; all
// values are dyadic so nothing depends on rounding.
template <typename PullFn, typename PushFn>
void RunGoldenSchedule(std::size_t dim, PullFn pull, PushFn push) {
  constexpr std::size_t kGoldenWorkers = 8;
  constexpr std::size_t kRounds = 5;
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t w = 0; w < kGoldenWorkers; ++w) {
      const PullResult snapshot = pull(w);
      ASSERT_EQ(snapshot.params.size(), dim);
      if ((r + w) % 3 == 2) {
        Gradient g = Gradient::Sparse();
        g.sparse().Add((w * 7) % dim, 0.25 * static_cast<double>(w + 1));
        g.sparse().Add((w * 7 + dim / 2) % dim, -0.125);
        push(w, g, r);
      } else {
        Gradient g = Gradient::Dense(dim);
        for (std::size_t i = 0; i < dim; ++i) {
          g.dense()[i] = 0.0078125 * static_cast<double>((w + 1) * (r + 1)) +
                         0.015625 * static_cast<double>(i % 5);
        }
        push(w, g, r);
      }
    }
  }
}

// The acceptance gate: an 8-worker loopback schedule produces the same
// training digest as the direct in-process run.
TEST(TransportGoldenTest, EightWorkerDigestIdenticalToDirect) {
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kGoldenWorkers = 8;

  auto direct_store = MakeStore(kDim, kShards);
  RunGoldenSchedule(
      kDim, [&](std::size_t) { return direct_store->Pull(); },
      [&](std::size_t, const Gradient& g, EpochId e) {
        direct_store->Push(g, e);
      });
  const std::uint64_t direct_digest = StoreDigest(*direct_store);

  auto store = MakeStore(kDim, kShards);
  auto server = StartServer(store.get());

  // One client per worker: eight live connections into one server.
  std::vector<std::unique_ptr<ShardClient>> clients;
  for (std::size_t w = 0; w < kGoldenWorkers; ++w) {
    clients.push_back(std::make_unique<ShardClient>(
        ClientConfigFor(*store, server->port())));
    ASSERT_TRUE(clients.back()->Connect());
  }
  RunGoldenSchedule(
      kDim, [&](std::size_t w) { return clients[w]->Pull(); },
      [&](std::size_t w, const Gradient& g, EpochId e) {
        clients[w]->Push(g, e);
      });
  EXPECT_EQ(StoreDigest(*store), direct_digest);
}

// Tracing is record-only: the same schedule with full observability attached
// (metrics registry, span recorders on both sides, trace-context extension on
// every frame) must produce the same digest as the untraced direct run.
TEST(TransportGoldenTest, EightWorkerDigestUnchangedByTracing) {
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kGoldenWorkers = 8;

  auto direct_store = MakeStore(kDim, kShards);
  RunGoldenSchedule(
      kDim, [&](std::size_t) { return direct_store->Pull(); },
      [&](std::size_t, const Gradient& g, EpochId e) {
        direct_store->Push(g, e);
      });
  const std::uint64_t direct_digest = StoreDigest(*direct_store);

  auto store = MakeStore(kDim, kShards);
  obs::MetricsRegistry metrics;
  obs::SpanRecorder server_spans;
  EventLoopServer server(store.get(), ShardServerConfig{}, &metrics,
                         &server_spans);
  ASSERT_TRUE(server.Start());

  obs::SpanRecorder client_spans;
  std::vector<std::unique_ptr<ShardClient>> clients;
  for (std::size_t w = 0; w < kGoldenWorkers; ++w) {
    ShardClientConfig client_config = ClientConfigFor(*store, server.port());
    client_config.trace_track = static_cast<std::uint32_t>(w);
    clients.push_back(std::make_unique<ShardClient>(
        std::move(client_config), nullptr, &metrics, &client_spans));
    ASSERT_TRUE(clients.back()->Connect());
  }
  RunGoldenSchedule(
      kDim, [&](std::size_t w) { return clients[w]->Pull(); },
      [&](std::size_t w, const Gradient& g, EpochId e) {
        clients[w]->Push(g, e);
      });
  EXPECT_EQ(StoreDigest(*store), direct_digest);
  EXPECT_GT(client_spans.event_count(), 0u);
  EXPECT_GT(server_spans.event_count(), 0u);
}

}  // namespace
}  // namespace specsync::net
