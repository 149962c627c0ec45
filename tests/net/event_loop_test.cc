// Event-loop server tests: the server's structural guarantees (one thread
// per loop and one loop per core, whatever the client count; connections on
// different loops served in parallel; a push sent on two loops at once
// applied once; pipelined in-order service) plus the incremental frame
// reassembly fuzz — frames split at every byte boundary, coalesced frames,
// truncated-then-closed streams, and malformed bytes that must kill exactly
// one connection.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "net/endpoint.h"
#include "net/event_loop_server.h"
#include "net/shard_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "optim/lr_schedule.h"
#include "ps/param_store.h"
#include "support/loopback.h"

namespace specsync::net {
namespace {

std::unique_ptr<ParameterServer> MakeStore(std::size_t dim,
                                           std::size_t num_shards) {
  auto store = std::make_unique<ParameterServer>(
      dim, num_shards,
      std::make_shared<SgdApplier>(std::make_shared<ConstantSchedule>(1.0)));
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

// Shard `s`'s slice of the store, read under its lock.
std::vector<double> ShardParams(const ParameterServer& store, std::size_t s) {
  std::vector<double> out(store.shard(s).length);
  store.PullShardSlice(s, out);
  return out;
}

// Receives one frame (5s deadline) and returns its decoded id + message.
bool RecvOne(TcpConnection& conn, std::uint64_t& id, WireMessage& out) {
  std::vector<std::uint8_t> reply;
  std::size_t n = 0;
  if (conn.RecvFrame(reply, n,
                     std::chrono::steady_clock::now() +
                         std::chrono::seconds(5)) !=
      TcpConnection::RecvStatus::kFrame) {
    return false;
  }
  return DecodeFrame(std::span(reply).first(n), id, out) == WireStatus::kOk;
}

std::unique_ptr<EventLoopServer> StartServer(ParameterServer* store,
                                             ShardServerConfig config = {}) {
  auto server = std::make_unique<EventLoopServer>(store, std::move(config));
  EXPECT_TRUE(server->Start());
  return server;
}

// The reassembly suite is value-parameterized over the server implementation,
// with the event loop as its one value, so every case keeps its name,
// Models/ReassemblyTest.<Case>/EventLoop. gtest prints the parameter's bytes
// into that name, hence the explicit enumerator value.
enum class ServerImpl : std::int32_t { kEventLoop = 1 };

class ReassemblyTest : public ::testing::TestWithParam<ServerImpl> {};

INSTANTIATE_TEST_SUITE_P(Models, ReassemblyTest,
                         ::testing::Values(ServerImpl::kEventLoop),
                         [](const ::testing::TestParamInfo<ServerImpl>&) {
                           return std::string("EventLoop");
                         });

TEST_P(ReassemblyTest, FrameDribbledOneByteAtATimeIsReassembled) {
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  TcpConnection conn = ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());

  // A payload-bearing request (a one-slice push batch) so the dribble
  // crosses the header/payload seam and several element boundaries.
  PushShardReq req;
  req.shard = 0;
  req.epoch = 1;
  req.sparse = true;
  req.indices = {0, 3, 4};
  req.values = {0.5, -1.0, 2.0};
  const auto frame = EncodeFrame(CommitPushReq{7, 1, {req}}, 99);
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(conn.SendAll(std::span(&byte, 1)));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  std::uint64_t id = 0;
  WireMessage out;
  ASSERT_TRUE(RecvOne(conn, id, out));
  EXPECT_EQ(id, 99u);
  ASSERT_TRUE(std::holds_alternative<AckResp>(out));
  EXPECT_EQ(std::get<AckResp>(out).status, kAckOk);
}

TEST_P(ReassemblyTest, TracedPullFrameDribbledByteWiseIsReassembled) {
  // The trace extension's 6-byte head (u32 magic, u16 length) leaves the
  // frame off 8-byte alignment: dribbling it exercises reassembly seams no
  // f64-aligned frame hits.
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  TcpConnection conn = ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());

  const TraceContext trace{0x1234, 0x1234};
  const auto frame = EncodeFrame(PullBatchReq{{{1}}}, 41, &trace);
  // 20 header + 4 count + 12 entry, then the extension: 4 magic +
  // 2 length + 8 trace id + 8 parent span.
  ASSERT_EQ(frame.size(), 58u);
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(conn.SendAll(std::span(&byte, 1)));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  std::uint64_t id = 0;
  WireMessage out;
  ASSERT_TRUE(RecvOne(conn, id, out));
  EXPECT_EQ(id, 41u);
  const auto* batch = std::get_if<PullBatchResp>(&out);
  ASSERT_NE(batch, nullptr);
  ASSERT_EQ(batch->items.size(), 1u);
  EXPECT_EQ(batch->items[0].shard, 1u);
  EXPECT_EQ(batch->items[0].params, ShardParams(*store, 1));
}

TEST_P(ReassemblyTest, FrameSplitAtEveryByteBoundaryIsReassembled) {
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  const auto frame = EncodeFrame(PullBatchReq{{{1}}}, 7);
  for (std::size_t split = 1; split < frame.size(); ++split) {
    TcpConnection conn = ConnectLoopback(server->port());
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(conn.SendAll(std::span(frame).first(split)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(conn.SendAll(std::span(frame).subspan(split)));
    std::uint64_t id = 0;
    WireMessage out;
    ASSERT_TRUE(RecvOne(conn, id, out)) << "split at byte " << split;
    EXPECT_EQ(id, 7u);
    const auto* batch = std::get_if<PullBatchResp>(&out);
    ASSERT_NE(batch, nullptr) << "split at byte " << split;
    ASSERT_EQ(batch->items.size(), 1u);
    EXPECT_EQ(batch->items[0].shard, 1u);
  }
}

TEST_P(ReassemblyTest, CoalescedFramesAreAllAnswered) {
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  TcpConnection conn = ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());

  // Eight pipelined requests in ONE write: the server must peel frame after
  // frame out of a single receive buffer and answer each id exactly once.
  // Responses may legally arrive in any order (wire v2).
  constexpr std::uint64_t kBase = 1000;
  constexpr std::size_t kCount = 8;
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < kCount; ++i) {
    const auto frame = EncodeFrame(
        PullBatchReq{{{static_cast<std::uint32_t>(i % store->num_shards())}}},
        kBase + i);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(conn.SendAll(burst));

  std::set<std::uint64_t> answered;
  for (std::size_t i = 0; i < kCount; ++i) {
    std::uint64_t id = 0;
    WireMessage out;
    ASSERT_TRUE(RecvOne(conn, id, out)) << "response " << i;
    EXPECT_TRUE(std::holds_alternative<PullBatchResp>(out));
    answered.insert(id);
  }
  EXPECT_EQ(answered.size(), kCount);
  EXPECT_EQ(*answered.begin(), kBase);
  EXPECT_EQ(*answered.rbegin(), kBase + kCount - 1);
}

TEST_P(ReassemblyTest, TruncatedFrameThenCloseLeavesServerServing) {
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  {
    TcpConnection conn = ConnectLoopback(server->port());
    ASSERT_TRUE(conn.valid());
    const auto frame = EncodeFrame(PullBatchReq{{{0}}}, 1);
    ASSERT_TRUE(conn.SendAll(std::span(frame).first(kHeaderBytes / 2)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }  // stream closes mid-header
  {
    TcpConnection conn = ConnectLoopback(server->port());
    ASSERT_TRUE(conn.valid());
    const auto frame = EncodeFrame(PullBatchReq{{{0}}}, 2);
    // Full header + half the payload, then close.
    ASSERT_TRUE(conn.SendAll(
        std::span(frame).first(kHeaderBytes + (frame.size() - kHeaderBytes) / 2)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }  // stream closes mid-payload

  ShardClient client(ClientConfigFor(*store, server->port()));
  ASSERT_TRUE(client.Connect());
  EXPECT_EQ(client.Pull().params, store->Pull().params);
}

TEST_P(ReassemblyTest, MalformedPayloadKillsOnlyItsConnection) {
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  TcpConnection bad = ConnectLoopback(server->port());
  ASSERT_TRUE(bad.valid());

  // Valid header, corrupt body: the dense/sparse kind byte (offset
  // header + u32 shard + u64 epoch) set to an undefined value.
  auto frame = EncodeFrame(PushShardReq{}, 5);
  frame[kHeaderBytes + 4 + 8] = 7;
  ASSERT_TRUE(bad.SendAll(frame));
  std::vector<std::uint8_t> reply;
  std::size_t n = 0;
  EXPECT_EQ(bad.RecvFrame(reply, n,
                          std::chrono::steady_clock::now() +
                              std::chrono::seconds(5)),
            TcpConnection::RecvStatus::kClosed);

  ShardClient client(ClientConfigFor(*store, server->port()));
  ASSERT_TRUE(client.Connect());
  EXPECT_EQ(client.Pull().params, store->Pull().params);
  EXPECT_GE(server->stats().bad_frames, 1u);
}

// --- Pipelining regression (the reason wire v2 exists) ----------------------

// Pipelining saves round trips, not execution: 8 PullBatchReq frames sent
// back to back on one connection, each with an injected 25 ms service
// delay, run one after another on the connection's loop. Each is answered
// exactly once and in arrival order, and the whole run costs at least 8
// delays, which shows the delay is really in the path.
TEST(PipeliningTest, PipelinedPullsAreAnsweredOnceInArrivalOrder) {
  constexpr std::uint64_t kBatches = 8;
  constexpr std::chrono::milliseconds kDelay{25};
  auto store = MakeStore(64, 4);
  ShardServerConfig server_config;
  server_config.service_delay = kDelay;
  auto server = StartServer(store.get(), server_config);
  TcpConnection conn = ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());
  PullBatchReq batch;
  for (std::uint32_t s = 0; s < store->num_shards(); ++s) {
    batch.entries.push_back({s});
  }

  const auto begin = std::chrono::steady_clock::now();
  for (std::uint64_t r = 1; r <= kBatches; ++r) {
    ASSERT_TRUE(conn.SendAll(EncodeFrame(batch, r)));
  }
  std::vector<std::uint64_t> answered;
  for (std::uint64_t r = 1; r <= kBatches; ++r) {
    std::uint64_t id = 0;
    WireMessage out;
    ASSERT_TRUE(RecvOne(conn, id, out));
    const auto* reply = std::get_if<PullBatchResp>(&out);
    ASSERT_NE(reply, nullptr);
    EXPECT_EQ(reply->items.size(), store->num_shards());
    answered.push_back(id);
  }
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  std::vector<std::uint64_t> in_order(kBatches);
  std::iota(in_order.begin(), in_order.end(), 1);
  EXPECT_EQ(answered, in_order);
  EXPECT_GE(elapsed, kBatches * kDelay);
  EXPECT_EQ(server->stats().pulls, kBatches * store->num_shards());
}

// --- Thread-count structure -------------------------------------------------

TEST(EventLoopTest, ThreadCountStaysConstantUnderManyConnections) {
  auto store = MakeStore(16, 2);
  auto server = StartServer(store.get());
  // One thread per loop and one loop per core, nothing per connection.
  const std::size_t loops = ThreadPool::DefaultThreadCount();
  EXPECT_EQ(server->thread_count(), loops);

  std::vector<TcpConnection> held;
  for (int i = 0; i < 24; ++i) {
    TcpConnection conn = ConnectLoopback(server->port());
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(conn.SendAll(EncodeFrame(PullBatchReq{{{0}}}, 1 + i)));
    std::uint64_t id = 0;
    WireMessage out;
    ASSERT_TRUE(RecvOne(conn, id, out));
    held.push_back(std::move(conn));  // keep every connection open
  }
  EXPECT_EQ(server->thread_count(), loops);
  EXPECT_GE(server->stats().pulls, 24u);
}

// --- Per-core loops -----------------------------------------------------------

// Opens `count` connections to a fresh server and waits until its loops have
// registered them all, so connection i sits on loop i mod K before anything
// is sent.
std::vector<TcpConnection> ConnectAndWaitAdopted(const EventLoopServer& server,
                                                 obs::MetricsRegistry& metrics,
                                                 std::size_t count) {
  std::vector<TcpConnection> conns;
  for (std::size_t i = 0; i < count; ++i) {
    conns.push_back(ConnectLoopback(server.port()));
    EXPECT_TRUE(conns.back().valid());
  }
  const obs::Counter& accepts = metrics.counter("net.eloop.accepts");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (accepts.value() < count &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(accepts.value(), count);
  return conns;
}

// Connections 0 and 1 sit on loops 0 and 1, and each loop executes what it
// reads: two requests that each take D are answered together, not back to
// back as one loop would answer them.
TEST(EventLoopTest, TwoConnectionsOnTwoLoopsAreServedInParallel) {
  if (ThreadPool::DefaultThreadCount() < 2) {
    GTEST_SKIP() << "one core, one loop";
  }
  constexpr auto kDelay = std::chrono::milliseconds(200);
  auto store = MakeStore(16, 2);
  obs::MetricsRegistry metrics;
  ShardServerConfig config;
  config.service_delay = kDelay;
  EventLoopServer server(store.get(), std::move(config), &metrics);
  ASSERT_TRUE(server.Start());
  std::vector<TcpConnection> conns =
      ConnectAndWaitAdopted(server, metrics, 2);

  const auto begin = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < 2; ++c) {
    ASSERT_TRUE(conns[c].SendAll(EncodeFrame(PullBatchReq{{{0}, {1}}}, 1)));
  }
  for (TcpConnection& conn : conns) {
    std::uint64_t id = 0;
    WireMessage out;
    ASSERT_TRUE(RecvOne(conn, id, out));
    const auto* reply = std::get_if<PullBatchResp>(&out);
    ASSERT_NE(reply, nullptr);
    EXPECT_EQ(reply->items.size(), 2u);
  }
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed, kDelay * 3 / 2)
      << "the two requests were served one after the other";
  EXPECT_EQ(server.stats().pulls, 4u);
}

// One push sent at once on two connections that sit on different loops:
// each loop holds all of its copy but the last byte, so the two last bytes,
// sent back to back, complete both copies together and the two loops
// execute them concurrently. A wide dense slice keeps each apply long
// enough for the executions to overlap. The client's watermark lets exactly
// one apply, and both acks carry the one commit's version.
TEST(EventLoopTest, PushSentOnTwoLoopsAtOnceAppliesOnce) {
  constexpr std::uint64_t kRounds = 200;
  constexpr std::uint64_t kClient = 42;
  constexpr std::size_t kWidth = 1 << 17;
  auto store = MakeStore(2 * kWidth, 2);
  obs::MetricsRegistry metrics;
  EventLoopServer server(store.get(), ShardServerConfig{}, &metrics);
  ASSERT_TRUE(server.Start());
  std::vector<TcpConnection> conns =
      ConnectAndWaitAdopted(server, metrics, 2);
  const obs::Gauge& buffered = metrics.gauge("net.eloop.reassembly_bytes");

  PushShardReq slice;
  slice.shard = 1;  // [kWidth, 2 kWidth)
  slice.dense_offset = kWidth;
  slice.dense.assign(kWidth, 1.0);
  for (std::uint64_t seq = 1; seq <= kRounds; ++seq) {
    const auto frame = EncodeFrame(CommitPushReq{kClient, seq, {slice}}, seq);
    const std::span<const std::uint8_t> head =
        std::span(frame).first(frame.size() - 1);
    const std::span<const std::uint8_t> last = std::span(frame).last(1);
    const std::uint64_t before = store->version();
    for (TcpConnection& conn : conns) ASSERT_TRUE(conn.SendAll(head));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (buffered.value() < 2.0 * static_cast<double>(head.size()) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    for (TcpConnection& conn : conns) ASSERT_TRUE(conn.SendAll(last));
    for (TcpConnection& conn : conns) {
      std::uint64_t id = 0;
      WireMessage out;
      ASSERT_TRUE(RecvOne(conn, id, out));
      EXPECT_EQ(id, seq);
      const auto* ack = std::get_if<AckResp>(&out);
      ASSERT_NE(ack, nullptr);
      EXPECT_EQ(ack->status, kAckOk);
      EXPECT_EQ(ack->value, before + 1) << "push_seq " << seq;
    }
    ASSERT_EQ(store->version(), before + 1) << "push_seq " << seq;
  }
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.commits, kRounds);
  EXPECT_EQ(stats.duplicate_pushes, kRounds);
  // MakeStore sets parameter i to i + 1, and each applied push subtracts 1.
  EXPECT_EQ(ShardParams(*store, 1)[0],
            static_cast<double>(kWidth + 1 - kRounds));
}

}  // namespace
}  // namespace specsync::net
