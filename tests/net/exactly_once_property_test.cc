// Exactly-once push property suite.
//
// SpecSync counts a worker's missed updates as the pushes committed after
// its pull; that count is only meaningful if every gradient is applied once.
// This suite holds the TCP push path to that, at two levels:
//
//  * The watermark unit. Random op schedules (per client: next push, retry
//    of the latest, stale copy of an older one) run against PushWatermarks
//    and are checked op by op against the contract: a new sequence number
//    applies exactly once, every repeat applies nothing and returns the
//    cached ack. Failures shrink (greedy ddmin) to a minimal schedule. Two
//    copies of one push racing on two threads must apply once. The harness
//    has teeth: a planted `<` in place of `<=` is caught and shrunk to two
//    ops, and a planted watermark check made outside the client lock is
//    caught by the race harness.
//  * The real transport. Seeded timelines of pulls and pushes run through a
//    ShardClient and a real EventLoopServer with faults scripted per push —
//    a lost response, a duplicated frame, a delayed frame, a link killed
//    right after the batch went out (then a reconnect) — injected by a
//    frame-aware proxy, and again with FaultPlan drops, delays and
//    duplicates. Parameter bits, global and shard versions, and every
//    pull/push observation must equal the fault-free direct run. A pull
//    batch whose response arrives only after its retry's must count as
//    stale and leave the delta cache as the fault-free run leaves it.
//
// Schedules are seeded; set SPECSYNC_PROPERTY_SEED to reproduce or explore.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/hash.h"
#include "common/rng.h"
#include "fault/fault_plan.h"
#include "net/endpoint.h"
#include "net/event_loop_server.h"
#include "net/request_executor.h"
#include "net/shard_client.h"
#include "net/socket.h"
#include "net/wire.h"
#include "optim/lr_schedule.h"
#include "ps/param_store.h"

namespace specsync::net {
namespace {

std::uint64_t BaseSeed() {
  if (const char* env = std::getenv("SPECSYNC_PROPERTY_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20261016;
}

// --- the watermark unit ------------------------------------------------------

// Test-local copies of PushWatermarks, each with one planted bug.
enum class Bug { kLessThan, kUnlockedCheck };

template <Bug kBug>
class PlantedWatermarks {
 public:
  template <typename ApplyFn>
  PushWatermarks::Outcome ApplyOnce(std::uint64_t client_id,
                                    std::uint64_t push_seq, ApplyFn&& apply) {
    Client& client = ClientFor(client_id);
    if constexpr (kBug == Bug::kUnlockedCheck) {
      // Planted: the check runs before the lock, so two copies can both
      // pass it and then apply one after the other.
      if (push_seq <= client.last_seq.load()) {
        std::scoped_lock lock(client.mutex);
        return {client.ack, true};
      }
      std::scoped_lock lock(client.mutex);
      client.ack = apply();
      client.last_seq.store(push_seq);
      return {client.ack, false};
    } else {
      std::scoped_lock lock(client.mutex);
      // Planted: `<` lets a retry of the latest push through.
      if (push_seq < client.last_seq.load()) return {client.ack, true};
      client.ack = apply();
      client.last_seq.store(push_seq);
      return {client.ack, false};
    }
  }

 private:
  struct Client {
    std::mutex mutex;
    std::atomic<std::uint64_t> last_seq{0};
    AckResp ack;
  };
  Client& ClientFor(std::uint64_t client_id) {
    std::scoped_lock lock(mutex_);
    std::unique_ptr<Client>& client = clients_[client_id];
    if (client == nullptr) client = std::make_unique<Client>();
    return *client;
  }
  std::mutex mutex_;
  std::map<std::uint64_t, std::unique_ptr<Client>> clients_;
};

enum class DedupKind { kNext, kRetry, kStale };

struct DedupOp {
  std::uint64_t client = 1;
  DedupKind kind = DedupKind::kNext;
};

using DedupSchedule = std::vector<DedupOp>;

DedupSchedule GenerateDedupSchedule(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t clients = 1 + rng.Index(3);
  DedupSchedule ops(10 + rng.Index(51));
  for (DedupOp& op : ops) {
    op.client = 1 + rng.Index(clients);
    const std::size_t roll = rng.Index(10);
    op.kind = roll < 5 ? DedupKind::kNext
                       : (roll < 8 ? DedupKind::kRetry : DedupKind::kStale);
  }
  return ops;
}

std::string FormatDedup(const DedupSchedule& ops) {
  std::ostringstream out;
  for (const DedupOp& op : ops) {
    const char* kind = op.kind == DedupKind::kNext
                           ? "next"
                           : (op.kind == DedupKind::kRetry ? "retry" : "stale");
    out << " c" << op.client << ':' << kind;
  }
  return out.str();
}

// Replays `ops` against a fresh table and checks every outcome against the
// contract. Retries and stale copies of a client with nothing (or too
// little) applied are no-ops, so every op list is executable — which keeps
// shrinking well-defined. Returns the first violation, or nullopt.
template <typename Table>
std::optional<std::string> RunDedupSchedule(const DedupSchedule& ops) {
  Table table;
  std::uint64_t version = 0;
  std::map<std::uint64_t, std::uint64_t> last_sent;  // client → last seq
  std::map<std::pair<std::uint64_t, std::uint64_t>, int> applies;
  std::map<std::uint64_t, std::uint64_t> latest_ack;  // client → ack value
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const DedupOp& op = ops[i];
    std::uint64_t& last = last_sent[op.client];
    std::uint64_t seq = 0;
    switch (op.kind) {
      case DedupKind::kNext: seq = ++last; break;
      case DedupKind::kRetry: seq = last; break;
      case DedupKind::kStale: seq = last >= 2 ? last - 1 : 0; break;
    }
    if (seq == 0) continue;
    const PushWatermarks::Outcome outcome =
        table.ApplyOnce(op.client, seq, [&] {
          ++applies[{op.client, seq}];
          return AckResp{kAckOk, ++version};
        });
    std::ostringstream where;
    where << "op " << i << " (client " << op.client << ", seq " << seq << ")";
    if (applies[{op.client, seq}] > 1) {
      return where.str() + ": applied twice";
    }
    if (op.kind == DedupKind::kNext) {
      if (outcome.duplicate || applies[{op.client, seq}] != 1) {
        return where.str() + ": a new push was not applied";
      }
      latest_ack[op.client] = outcome.ack.value;
      continue;
    }
    if (!outcome.duplicate) return where.str() + ": a repeat was applied";
    if (outcome.ack.value != latest_ack[op.client]) {
      return where.str() + ": a repeat got a different ack";
    }
  }
  return std::nullopt;
}

// Greedy ddmin: drop chunks while the schedule still fails, halving the
// chunk size when nothing can go.
template <typename Table>
DedupSchedule ShrinkDedup(DedupSchedule ops) {
  for (std::size_t chunk = std::max<std::size_t>(1, ops.size() / 2);
       chunk >= 1;) {
    bool removed = false;
    for (std::size_t start = 0; start < ops.size();) {
      DedupSchedule candidate = ops;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(start),
                      candidate.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(ops.size(),
                                                       start + chunk)));
      if (RunDedupSchedule<Table>(candidate).has_value()) {
        ops = std::move(candidate);
        removed = true;
      } else {
        start += chunk;
      }
    }
    if (!removed) {
      if (chunk == 1) break;
      chunk /= 2;
    }
  }
  return ops;
}

TEST(ExactlyOnceWatermarkProperty, RandomSchedulesApplyEveryPushOnce) {
  const std::uint64_t base = BaseSeed();
  for (std::size_t trial = 0; trial < 1000; ++trial) {
    const DedupSchedule ops = GenerateDedupSchedule(base + trial * 7919ULL);
    const auto failure = RunDedupSchedule<PushWatermarks>(ops);
    if (!failure.has_value()) continue;
    const DedupSchedule minimal = ShrinkDedup<PushWatermarks>(ops);
    FAIL() << "seed " << base << " trial " << trial << ": " << *failure
           << "\nshrunk schedule:" << FormatDedup(minimal);
  }
}

TEST(ExactlyOnceWatermarkProperty, PlantedLessThanIsCaughtAndShrunk) {
  using Planted = PlantedWatermarks<Bug::kLessThan>;
  const std::uint64_t base = BaseSeed();
  bool caught = false;
  for (std::size_t trial = 0; trial < 200 && !caught; ++trial) {
    const DedupSchedule ops = GenerateDedupSchedule(base + trial * 7919ULL);
    if (!RunDedupSchedule<Planted>(ops).has_value()) continue;
    caught = true;
    const DedupSchedule minimal = ShrinkDedup<Planted>(ops);
    EXPECT_TRUE(RunDedupSchedule<Planted>(minimal).has_value());
    // Minimal witness: a push and a retry of it.
    EXPECT_EQ(minimal.size(), 2u) << FormatDedup(minimal);
  }
  EXPECT_TRUE(caught) << "no schedule exposed the planted `<` watermark";
}

// Two copies of one push on two threads. The first copy's apply holds until
// the second copy has entered ApplyOnce, then lingers so that the second
// copy reaches its watermark check while the first is mid-apply. Returns the
// largest number of applies any round saw (1 = exactly-once held).
template <typename Table>
int MaxAppliesOfConcurrentCopies(int rounds) {
  Table table;
  int worst = 0;
  for (int round = 1; round <= rounds; ++round) {
    const auto seq = static_cast<std::uint64_t>(round);
    std::atomic<int> applies{0};
    std::atomic<bool> first_in_apply{false};
    std::atomic<bool> second_arrived{false};
    const auto apply = [&] {
      applies.fetch_add(1);
      first_in_apply.store(true);
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (!second_arrived.load() &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      return AckResp{kAckOk, seq};
    };
    PushWatermarks::Outcome first;
    PushWatermarks::Outcome second;
    std::thread a([&] { first = table.ApplyOnce(7, seq, apply); });
    while (!first_in_apply.load()) std::this_thread::yield();
    std::thread b([&] {
      second_arrived.store(true);
      second = table.ApplyOnce(7, seq, apply);
    });
    a.join();
    b.join();
    worst = std::max(worst, applies.load());
    if (applies.load() == 1) {
      EXPECT_NE(first.duplicate, second.duplicate);
      EXPECT_EQ(first.ack.value, second.ack.value);
    }
  }
  return worst;
}

TEST(ExactlyOnceWatermarkProperty, ConcurrentCopiesApplyOnce) {
  EXPECT_EQ(MaxAppliesOfConcurrentCopies<PushWatermarks>(40), 1);
}

TEST(ExactlyOnceWatermarkProperty, PlantedUnlockedCheckIsCaught) {
  EXPECT_EQ(MaxAppliesOfConcurrentCopies<
                PlantedWatermarks<Bug::kUnlockedCheck>>(20),
            2)
      << "the race harness never exposed the check made outside the lock";
}

// --- the real transport ------------------------------------------------------

constexpr std::size_t kDim = 24;
constexpr std::size_t kShards = 3;

std::unique_ptr<ParameterServer> MakeStore() {
  auto store = std::make_unique<ParameterServer>(
      kDim, kShards,
      std::make_shared<SgdApplier>(std::make_shared<ConstantSchedule>(1.0)));
  DenseVector params(kDim);
  std::iota(params.begin(), params.end(), 1.0);
  store->SetParams(std::move(params));
  return store;
}

std::uint64_t StoreDigest(const ParameterServer& store) {
  Fnv1a h;
  for (const double v : store.Snapshot()) h.F64(v);
  h.U64(store.version());
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    h.U64(store.shard(s).version);
  }
  return h.digest();
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
  config.request_timeout = std::chrono::milliseconds(60);
  config.max_attempts = 64;
  return config;
}

// What the proxy does to the first copy of one push it forwards (retries of
// the same push pass untouched, so every scripted push completes).
enum class PushFault { kNone, kLoseResponse, kDuplicate, kDelay, kKillLink };

const char* PushFaultName(PushFault fault) {
  switch (fault) {
    case PushFault::kNone: return "none";
    case PushFault::kLoseResponse: return "lose_response";
    case PushFault::kDuplicate: return "duplicate";
    case PushFault::kDelay: return "delay";
    case PushFault::kKillLink: return "kill_link";
  }
  return "?";
}

// Frame-aware loopback proxy between one ShardClient and one server. Every
// accepted client connection gets its own upstream connection and two pump
// threads; push faults are keyed by push_seq. Optionally the response to
// pull batch number `late_pull` (0-based, in send order) is held back until
// the next response has been forwarded: the client times out and retries,
// and the held frame arrives after the retry's answer.
class FaultProxy {
 public:
  static constexpr std::size_t kNoLatePull = ~std::size_t{0};

  FaultProxy(std::uint16_t upstream_port,
             std::map<std::uint64_t, PushFault> faults,
             std::size_t late_pull = kNoLatePull)
      : upstream_port_(upstream_port),
        faults_(std::move(faults)),
        late_pull_(late_pull),
        listener_(TcpListener::BindLoopback(0)) {
    SPECSYNC_CHECK(listener_ != nullptr);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }

  ~FaultProxy() {
    listener_->Shutdown();
    accept_thread_.join();
    std::scoped_lock lock(mutex_);
    for (auto& relay : relays_) {
      relay->client.ShutdownBoth();
      relay->server.ShutdownBoth();
      relay->up.join();
      relay->down.join();
    }
  }

  FaultProxy(const FaultProxy&) = delete;
  FaultProxy& operator=(const FaultProxy&) = delete;

  std::uint16_t port() const { return listener_->port(); }

 private:
  struct Relay {
    TcpConnection client;
    TcpConnection server;
    std::thread up;
    std::thread down;
  };

  void AcceptLoop() {
    for (;;) {
      TcpConnection client = listener_->Accept();
      if (!client.valid()) return;
      auto relay = std::make_unique<Relay>();
      relay->client = std::move(client);
      relay->server = TcpConnection::ConnectLoopback(upstream_port_);
      Relay* raw = relay.get();
      std::scoped_lock lock(mutex_);
      raw->up = std::thread([this, raw] { PumpUp(raw); });
      raw->down = std::thread([this, raw] { PumpDown(raw); });
      relays_.push_back(std::move(relay));
    }
  }

  // The fault scripted for this frame: only the first copy of a push gets one.
  PushFault FaultFor(const std::vector<std::uint8_t>& frame) {
    std::uint64_t id = 0;
    WireMessage message;
    if (DecodeFrame(frame, id, message) != WireStatus::kOk) {
      return PushFault::kNone;
    }
    if (std::holds_alternative<PullBatchReq>(message)) {
      std::scoped_lock lock(mutex_);
      if (pulls_seen_++ == late_pull_) late_ids_.insert(id);
      return PushFault::kNone;
    }
    const auto* push = std::get_if<CommitPushReq>(&message);
    if (push == nullptr) return PushFault::kNone;
    std::scoped_lock lock(mutex_);
    if (!faulted_.insert(push->push_seq).second) return PushFault::kNone;
    const auto it = faults_.find(push->push_seq);
    if (it == faults_.end()) return PushFault::kNone;
    if (it->second == PushFault::kLoseResponse) lost_ids_.insert(id);
    return it->second;
  }

  void PumpUp(Relay* relay) {
    std::vector<std::uint8_t> frame;
    constexpr auto kForever = std::chrono::steady_clock::time_point::max();
    while (relay->client.RecvFrame(frame, kForever) ==
           TcpConnection::RecvStatus::kFrame) {
      const PushFault fault = FaultFor(frame);
      if (fault == PushFault::kDelay) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      // Kill: the client's link dies before the batch lands, so its ack can
      // never make it back — but the batch still reaches the server.
      if (fault == PushFault::kKillLink) relay->client.ShutdownBoth();
      bool ok = relay->server.SendAll(frame);
      if (ok && fault == PushFault::kDuplicate) {
        ok = relay->server.SendAll(frame);
      }
      if (!ok || fault == PushFault::kKillLink) break;
    }
    relay->client.ShutdownBoth();
  }

  void PumpDown(Relay* relay) {
    std::vector<std::uint8_t> frame;
    std::vector<std::vector<std::uint8_t>> held;  // late, sent after the next
    constexpr auto kForever = std::chrono::steady_clock::time_point::max();
    while (relay->server.RecvFrame(frame, kForever) ==
           TcpConnection::RecvStatus::kFrame) {
      FrameHeader header;
      if (DecodeHeader(frame, header) != WireStatus::kOk) break;
      {
        std::scoped_lock lock(mutex_);
        if (lost_ids_.erase(header.request_id) > 0) continue;
        if (late_ids_.erase(header.request_id) > 0) {
          held.push_back(frame);
          continue;
        }
      }
      bool ok = relay->client.SendAll(frame);
      for (const std::vector<std::uint8_t>& late : held) {
        ok = ok && relay->client.SendAll(late);
      }
      held.clear();
      if (!ok) break;
    }
    relay->client.ShutdownBoth();
  }

  const std::uint16_t upstream_port_;
  const std::map<std::uint64_t, PushFault> faults_;
  const std::size_t late_pull_;
  std::unique_ptr<TcpListener> listener_;
  std::thread accept_thread_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<Relay>> relays_;  // guarded by mutex_
  std::set<std::uint64_t> faulted_;                 // guarded by mutex_
  std::set<std::uint64_t> lost_ids_;                // guarded by mutex_
  std::size_t pulls_seen_ = 0;                      // guarded by mutex_
  std::set<std::uint64_t> late_ids_;                // guarded by mutex_
};

// One timeline step: a pull, or a push of a dyadic gradient (exact in
// floating point, so application order can never change a bit).
struct TimelineOp {
  bool push = false;
  Gradient grad = Gradient::Sparse();
  EpochId epoch = 0;
  PushFault fault = PushFault::kNone;
};

struct Timeline {
  std::vector<TimelineOp> ops;
  std::size_t pushes = 0;
};

Timeline GenerateTimeline(std::uint64_t seed, bool with_push_faults) {
  Rng rng(seed);
  Timeline t;
  const std::size_t len = 8 + rng.Index(9);
  for (std::size_t i = 0; i < len; ++i) {
    TimelineOp op;
    op.push = rng.Index(3) != 0;
    if (op.push) {
      ++t.pushes;
      op.epoch = static_cast<EpochId>(i);
      const auto dyadic = [&] {
        return static_cast<double>(rng.UniformInt(-8, 8)) / 8.0;
      };
      if (rng.Index(3) == 0) {
        op.grad = Gradient::Dense(kDim);
        for (double& v : op.grad.dense()) v = dyadic();
      } else {
        // Ascending distinct indices; an empty gradient is a valid push.
        for (std::size_t index = rng.Index(4); index < kDim;
             index += 1 + rng.Index(8)) {
          op.grad.sparse().Add(index, dyadic());
        }
      }
      if (with_push_faults) op.fault = static_cast<PushFault>(rng.Index(5));
    }
    t.ops.push_back(std::move(op));
  }
  return t;
}

std::string FormatTimeline(const Timeline& t) {
  std::ostringstream out;
  for (const TimelineOp& op : t.ops) {
    if (!op.push) {
      out << " pull";
      continue;
    }
    out << " push(" << (op.grad.is_sparse() ? "sparse" : "dense") << ','
        << PushFaultName(op.fault) << ')';
  }
  return out.str();
}

// Pull snapshots and push versions, in timeline order.
struct Observations {
  std::vector<std::vector<double>> pulls;
  std::vector<std::uint64_t> versions;
  bool operator==(const Observations&) const = default;
};

template <typename PullFn, typename PushFn>
Observations RunTimeline(const Timeline& t, PullFn pull, PushFn push) {
  Observations out;
  for (const TimelineOp& op : t.ops) {
    if (op.push) {
      out.versions.push_back(push(op.grad, op.epoch));
    } else {
      PullResult r = pull();
      out.versions.push_back(r.version);
      out.pulls.push_back(std::move(r.params));
    }
  }
  return out;
}

struct DirectRun {
  Observations observed;
  std::uint64_t digest = 0;
};

DirectRun RunDirect(const Timeline& t) {
  auto store = MakeStore();
  DirectRun run;
  run.observed = RunTimeline(
      t, [&] { return store->Pull(); },
      [&](const Gradient& g, EpochId e) { return store->Push(g, e); });
  run.digest = StoreDigest(*store);
  return run;
}

std::unique_ptr<EventLoopServer> StartEventLoop(ParameterServer* store) {
  ShardServerConfig config;
  config.pool_threads = 2;  // copies of one batch can run at once
  auto server = std::make_unique<EventLoopServer>(store, std::move(config));
  SPECSYNC_CHECK(server->Start());
  return server;
}

TEST(ExactlyOnceTransportProperty, ScriptedPushFaultsMatchTheFaultFreeRun) {
  const std::uint64_t base = BaseSeed();
  for (std::size_t trial = 0; trial < 6; ++trial) {
    const std::uint64_t seed = base + trial * 104729ULL;
    const Timeline timeline = GenerateTimeline(seed, /*with_push_faults=*/true);
    const DirectRun direct = RunDirect(timeline);

    std::map<std::uint64_t, PushFault> faults;
    std::uint64_t repeats = 0;  // faults that make the server see a push twice
    std::uint64_t seq = 0;
    for (const TimelineOp& op : timeline.ops) {
      if (!op.push) continue;
      faults[++seq] = op.fault;
      repeats += op.fault == PushFault::kLoseResponse ||
                 op.fault == PushFault::kDuplicate ||
                 op.fault == PushFault::kKillLink;
    }

    auto store = MakeStore();
    auto server = StartEventLoop(store.get());
    Observations wire;
    {
      FaultProxy proxy(server->port(), faults);
      ShardClient client(ClientConfigFor(*store, proxy.port()));
      ASSERT_TRUE(client.Connect());
      wire = RunTimeline(
          timeline, [&] { return client.Pull(); },
          [&](const Gradient& g, EpochId e) { return client.Push(g, e); });
    }
    server->Stop();  // drains the pool: every copy has executed

    const std::string context = "seed " + std::to_string(seed) +
                                " timeline:" + FormatTimeline(timeline);
    EXPECT_TRUE(wire == direct.observed) << context;
    EXPECT_EQ(StoreDigest(*store), direct.digest) << context;
    EXPECT_EQ(store->version(), timeline.pushes) << context;
    const ServerStats stats = server->stats();
    EXPECT_EQ(stats.commits, timeline.pushes) << context;
    EXPECT_GE(stats.duplicate_pushes, repeats) << context;
  }
}

TEST(ExactlyOnceTransportProperty, LatePullBatchResponseIsStaleAndHarmless) {
  // One pull batch's response is held back past the client's timeout and
  // delivered after the retry's answer. The late frame must be counted as
  // stale, never composed, and the delta cache must evolve exactly as in
  // the fault-free run: same snapshots, same hits and misses.
  const std::uint64_t base = BaseSeed();
  for (std::size_t trial = 0; trial < 4; ++trial) {
    const std::uint64_t seed = base + 77 + trial * 104729ULL;
    Timeline timeline = GenerateTimeline(seed, /*with_push_faults=*/false);
    timeline.ops.emplace_back();  // a final pull: every timeline has one
    const std::size_t pulls = static_cast<std::size_t>(std::count_if(
        timeline.ops.begin(), timeline.ops.end(),
        [](const TimelineOp& op) { return !op.push; }));
    const std::size_t late_pull = Rng(seed).Index(pulls);
    const DirectRun direct = RunDirect(timeline);

    // Runs the timeline through a delta client, behind a proxy holding back
    // pull batch `late` (kNoLatePull: a clean proxy).
    const auto run = [&](std::size_t late, ShardClient::Stats& stats) {
      auto store = MakeStore();
      auto server = StartEventLoop(store.get());
      FaultProxy proxy(server->port(), {}, late);
      ShardClientConfig config = ClientConfigFor(*store, proxy.port());
      config.compression = *CompressionSpec::Parse("delta");
      ShardClient client(config);
      EXPECT_TRUE(client.Connect());
      const Observations observed = RunTimeline(
          timeline, [&] { return client.Pull(); },
          [&](const Gradient& g, EpochId e) { return client.Push(g, e); });
      // The held frame may trail the last op: wait for the receiver to see
      // it before reading the counters.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (late != FaultProxy::kNoLatePull &&
             client.stats().stale_frames == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      stats = client.stats();
      return observed;
    };
    ShardClient::Stats clean;
    ShardClient::Stats faulted;
    const Observations clean_run = run(FaultProxy::kNoLatePull, clean);
    const Observations late_run = run(late_pull, faulted);

    const std::string context = "seed " + std::to_string(seed) +
                                " late pull " + std::to_string(late_pull) +
                                " timeline:" + FormatTimeline(timeline);
    EXPECT_TRUE(clean_run == direct.observed) << context;
    EXPECT_TRUE(late_run == direct.observed) << context;
    EXPECT_EQ(faulted.stale_frames, 1u) << context;
    EXPECT_EQ(faulted.timeouts, 1u) << context;
    EXPECT_EQ(faulted.retries, 1u) << context;
    EXPECT_EQ(clean.stale_frames, 0u) << context;
    EXPECT_EQ(faulted.delta_hits, clean.delta_hits) << context;
    EXPECT_EQ(faulted.delta_misses, clean.delta_misses) << context;
    EXPECT_EQ(clean.delta_hits + clean.delta_misses, pulls * kShards)
        << context;
  }
}

TEST(ExactlyOnceTransportProperty, FaultPlanLinksMatchTheFaultFreeRun) {
  struct Case {
    const char* name;
    double drop, delay, duplicate;
  };
  const Case cases[] = {{"duplicate_always", 0.0, 0.0, 1.0},
                        {"delay", 0.0, 0.5, 0.0},
                        {"drop_delay_duplicate", 0.2, 0.2, 0.3}};
  const std::uint64_t base = BaseSeed();
  for (const Case& c : cases) {
    for (std::size_t trial = 0; trial < 2; ++trial) {
      const std::uint64_t seed = base + 31 + trial * 104729ULL;
      const Timeline timeline = GenerateTimeline(seed, false);
      const DirectRun direct = RunDirect(timeline);

      FaultPlanConfig fault_config;
      fault_config.data.drop_probability = c.drop;
      fault_config.data.delay_probability = c.delay;
      fault_config.data.delay_mean = Duration::Milliseconds(2.0);
      fault_config.data.duplicate_probability = c.duplicate;
      fault_config.seed = seed;
      FaultPlan faults(fault_config);

      auto store = MakeStore();
      auto server = StartEventLoop(store.get());
      Observations wire;
      {
        ShardClient client(ClientConfigFor(*store, server->port()), &faults);
        ASSERT_TRUE(client.Connect());
        wire = RunTimeline(
            timeline, [&] { return client.Pull(); },
            [&](const Gradient& g, EpochId e) { return client.Push(g, e); });
      }
      server->Stop();

      const std::string context = std::string(c.name) + " seed " +
                                  std::to_string(seed) +
                                  " timeline:" + FormatTimeline(timeline);
      EXPECT_TRUE(wire == direct.observed) << context;
      EXPECT_EQ(StoreDigest(*store), direct.digest) << context;
      EXPECT_EQ(store->version(), timeline.pushes) << context;
      if (c.duplicate == 1.0) {
        // Every batch reached the server twice; one copy per push applied.
        EXPECT_GE(server->stats().duplicate_pushes, timeline.pushes)
            << context;
      }
    }
  }
}

TEST(ExactlyOnceTransportProperty, ConcurrentClientsWithDuplicatesMatchDirect) {
  // Two workers push concurrently through duplicating links. Their push
  // order is up to the scheduler, but dyadic gradients make the final bits
  // order-free, so the digest must still equal the serial direct run.
  const std::uint64_t base = BaseSeed();
  const Timeline first = GenerateTimeline(base + 5, false);
  const Timeline second = GenerateTimeline(base + 6, false);
  auto direct_store = MakeStore();
  for (const Timeline* t : {&first, &second}) {
    for (const TimelineOp& op : t->ops) {
      if (op.push) direct_store->Push(op.grad, op.epoch);
    }
  }

  FaultPlanConfig fault_config;
  fault_config.data.duplicate_probability = 1.0;
  FaultPlan faults(fault_config);
  auto store = MakeStore();
  auto server = StartEventLoop(store.get());
  {
    std::vector<std::jthread> workers;
    for (const Timeline* t : {&first, &second}) {
      workers.emplace_back([&, t] {
        ShardClient client(ClientConfigFor(*store, server->port()), &faults);
        ASSERT_TRUE(client.Connect());
        for (const TimelineOp& op : t->ops) {
          if (op.push) {
            client.Push(op.grad, op.epoch);
          } else {
            (void)client.Pull();
          }
        }
      });
    }
  }
  server->Stop();
  EXPECT_EQ(StoreDigest(*store), StoreDigest(*direct_store));
  EXPECT_EQ(store->version(), first.pushes + second.pushes);
}

TEST(ExactlyOnceTransportProperty, LostResponseAppliesOnceAcrossRetries) {
  // Every attempt outlives the client's timeout, so each response is lost
  // to a retry: the first copy applies, every later copy is a duplicate,
  // and the client finally reports the shard unreachable.
  Gradient g = Gradient::Sparse();
  g.sparse().Add(2, 0.5);
  g.sparse().Add(20, -0.25);
  auto direct_store = MakeStore();
  direct_store->Push(g, 0);

  auto store = MakeStore();
  ShardServerConfig config;
  config.pool_threads = 4;
  config.service_delay = std::chrono::milliseconds(60);
  auto server =
      std::make_unique<EventLoopServer>(store.get(), std::move(config));
  ASSERT_TRUE(server->Start());
  {
    ShardClientConfig client_config = ClientConfigFor(*store, server->port());
    client_config.request_timeout = std::chrono::milliseconds(20);
    client_config.max_attempts = 3;
    ShardClient client(client_config);
    ASSERT_TRUE(client.Connect());
    EXPECT_THROW(client.Push(g, 0), CheckError);
  }
  server->Stop();  // every delayed copy has executed by now

  EXPECT_EQ(StoreDigest(*store), StoreDigest(*direct_store));
  const ServerStats stats = server->stats();
  EXPECT_EQ(stats.commits, 1u);
  EXPECT_EQ(stats.duplicate_pushes, 2u);
}

TEST(ExactlyOnceTransportProperty, TwoCopiesExecutingAtOnceApplyOnce) {
  // Both copies of one batch sit in the pool at the same time (the service
  // delay holds them there together), then race for the client's
  // watermark: one applies, the other is answered from the cache.
  auto direct_store = MakeStore();
  Gradient g = Gradient::Sparse();
  g.sparse().Add(9, 1.0);
  direct_store->Push(g, 0);

  auto store = MakeStore();
  ShardServerConfig config;
  config.pool_threads = 2;
  config.service_delay = std::chrono::milliseconds(20);
  auto server =
      std::make_unique<EventLoopServer>(store.get(), std::move(config));
  ASSERT_TRUE(server->Start());

  PushShardReq slice;
  slice.shard = 1;  // [8, 16)
  slice.sparse = true;
  slice.indices = {9};
  slice.values = {1.0};
  const auto frame = EncodeFrame(CommitPushReq{77, 1, {slice}}, 5);
  std::vector<std::uint8_t> both(frame);
  both.insert(both.end(), frame.begin(), frame.end());
  TcpConnection conn = TcpConnection::ConnectLoopback(server->port());
  ASSERT_TRUE(conn.valid());
  ASSERT_TRUE(conn.SendAll(both));
  for (int i = 0; i < 2; ++i) {
    std::vector<std::uint8_t> reply;
    ASSERT_EQ(conn.RecvFrame(reply, std::chrono::steady_clock::now() +
                                        std::chrono::seconds(5)),
              TcpConnection::RecvStatus::kFrame);
    std::uint64_t id = 0;
    WireMessage out;
    ASSERT_EQ(DecodeFrame(reply, id, out), WireStatus::kOk);
    const auto& ack = std::get<AckResp>(out);
    EXPECT_EQ(ack.status, kAckOk);
    EXPECT_EQ(ack.value, 1u) << "both copies report the one commit";
  }
  server->Stop();
  EXPECT_EQ(StoreDigest(*store), StoreDigest(*direct_store));
  EXPECT_EQ(server->stats().duplicate_pushes, 1u);
}

}  // namespace
}  // namespace specsync::net
