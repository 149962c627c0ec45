// Event-loop server tests: the server's structural guarantees (constant
// thread count, pipelined out-of-order service) plus the incremental frame
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
#include <string>
#include <thread>
#include <vector>

#include "net/endpoint.h"
#include "net/event_loop_server.h"
#include "net/shard_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "optim/lr_schedule.h"
#include "ps/param_store.h"

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

// Receives one frame (5s deadline) and returns its decoded id + message.
bool RecvOne(TcpConnection& conn, std::uint64_t& id, WireMessage& out) {
  std::vector<std::uint8_t> reply;
  if (conn.RecvFrame(reply, std::chrono::steady_clock::now() +
                                std::chrono::seconds(5)) !=
      TcpConnection::RecvStatus::kFrame) {
    return false;
  }
  return DecodeFrame(reply, id, out) == WireStatus::kOk;
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
  TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
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

TEST_P(ReassemblyTest, CodedFrameDribbledByteWiseIsReassembled) {
  // The kind-2 coded encoding has an odd-sized layout (1-byte codec tag,
  // 8-byte scale, 1-byte values): dribbling it exercises reassembly seams no
  // f64-aligned frame hits. The int8 values are chosen pre-quantized so the
  // decoded push applies exactly.
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());

  PushShardReq req;
  req.shard = 0;
  req.epoch = 2;
  req.sparse = true;
  req.coded = static_cast<std::uint8_t>(CodecKind::kInt8);
  req.indices = {1, 2, 4};
  req.values = {0.25, -1.0, 0.5};  // scale 1/64, all exactly coded
  const auto frame = EncodeFrame(CommitPushReq{7, 1, {req}}, 41);
  // 20 header + 8 client + 8 seq + 4 count, then the slice: 4 shard +
  // 8 epoch + 3 tags + 8 scale + 8 nnz + 24 idx + 3 q.
  ASSERT_EQ(frame.size(), 98u);
  for (const std::uint8_t byte : frame) {
    ASSERT_TRUE(conn.SendAll(std::span(&byte, 1)));
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }

  std::uint64_t id = 0;
  WireMessage out;
  ASSERT_TRUE(RecvOne(conn, id, out));
  EXPECT_EQ(id, 41u);
  ASSERT_TRUE(std::holds_alternative<AckResp>(out));
  EXPECT_EQ(std::get<AckResp>(out).status, kAckOk);
}

TEST_P(ReassemblyTest, FrameSplitAtEveryByteBoundaryIsReassembled) {
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  const auto frame = EncodeFrame(PullShardReq{1}, 7);
  for (std::size_t split = 1; split < frame.size(); ++split) {
    TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(conn.SendAll(std::span(frame).first(split)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(conn.SendAll(std::span(frame).subspan(split)));
    std::uint64_t id = 0;
    WireMessage out;
    ASSERT_TRUE(RecvOne(conn, id, out)) << "split at byte " << split;
    EXPECT_EQ(id, 7u);
    EXPECT_TRUE(std::holds_alternative<PullShardResp>(out))
        << "split at byte " << split;
  }
}

TEST_P(ReassemblyTest, CoalescedFramesAreAllAnswered) {
  auto store = MakeStore(10, 2);
  auto server = StartServer(store.get());
  TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());

  // Eight pipelined requests in ONE write: the server must peel frame after
  // frame out of a single receive buffer and answer each id exactly once.
  // Responses may legally arrive in any order (wire v2).
  constexpr std::uint64_t kBase = 1000;
  constexpr std::size_t kCount = 8;
  std::vector<std::uint8_t> burst;
  for (std::size_t i = 0; i < kCount; ++i) {
    const auto frame = EncodeFrame(
        PullShardReq{static_cast<std::uint32_t>(i % store->num_shards())},
        kBase + i);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(conn.SendAll(burst));

  std::set<std::uint64_t> answered;
  for (std::size_t i = 0; i < kCount; ++i) {
    std::uint64_t id = 0;
    WireMessage out;
    ASSERT_TRUE(RecvOne(conn, id, out)) << "response " << i;
    EXPECT_TRUE(std::holds_alternative<PullShardResp>(out));
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
    TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
    ASSERT_TRUE(conn.valid());
    const auto frame = EncodeFrame(PullShardReq{0}, 1);
    ASSERT_TRUE(conn.SendAll(std::span(frame).first(kHeaderBytes / 2)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }  // stream closes mid-header
  {
    TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
    ASSERT_TRUE(conn.valid());
    const auto frame = EncodeFrame(PullShardReq{0}, 2);
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
  TcpConnection bad = TcpConnection::ConnectLoopback(server->port());
  ASSERT_TRUE(bad.valid());

  // Valid header, corrupt body: the dense/sparse kind byte (offset
  // header + u32 shard + u64 epoch) set to an undefined value.
  auto frame = EncodeFrame(PushShardReq{}, 5);
  frame[kHeaderBytes + 4 + 8] = 7;
  ASSERT_TRUE(bad.SendAll(frame));
  std::vector<std::uint8_t> reply;
  EXPECT_EQ(bad.RecvFrame(reply, std::chrono::steady_clock::now() +
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
// delay, run one after another on the loop thread. Each is answered exactly
// once and in arrival order, and the whole run costs at least 8 delays,
// which shows the delay is really in the path.
TEST(PipeliningTest, PipelinedPullsAreAnsweredOnceInArrivalOrder) {
  constexpr std::uint64_t kBatches = 8;
  constexpr std::chrono::milliseconds kDelay{25};
  auto store = MakeStore(64, 4);
  ShardServerConfig server_config;
  server_config.service_delay = kDelay;
  auto server = StartServer(store.get(), server_config);
  TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());
  PullBatchReq batch;
  for (std::uint32_t s = 0; s < store->num_shards(); ++s) {
    batch.entries.push_back({s, kPullAnyVersion});
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
  EXPECT_EQ(server->thread_count(), 1u);  // the loop, nothing per-connection

  std::vector<TcpConnection> held;
  for (int i = 0; i < 24; ++i) {
    TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
    ASSERT_TRUE(conn.valid());
    ASSERT_TRUE(conn.SendAll(EncodeFrame(PullShardReq{0}, 1 + i)));
    std::uint64_t id = 0;
    WireMessage out;
    ASSERT_TRUE(RecvOne(conn, id, out));
    held.push_back(std::move(conn));  // keep every connection open
  }
  EXPECT_EQ(server->thread_count(), 1u);
  EXPECT_GE(server->stats().pulls, 24u);
}

}  // namespace
}  // namespace specsync::net
