#include "net/shard_client.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/span_recorder.h"

namespace specsync::net {

namespace {

// Process-unique, nonzero ids: high half = pid so ids from different
// bench_transport processes never collide, low half = a per-process
// sequence. Used for trace ids (the same id rides every retry attempt of one
// logical request, so injected duplicates collapse onto one flow in
// Perfetto) and for client ids (clients in different worker processes never
// share a server-side push watermark).
std::uint64_t NextProcessUniqueId() {
  static std::atomic<std::uint64_t> counter{1};
  const std::uint64_t seq = counter.fetch_add(1, std::memory_order_relaxed);
  return (static_cast<std::uint64_t>(::getpid()) << 32) |
         (seq & 0xffffffffull);
}

void RecordNetState(const char* label, std::int64_t a, std::int64_t b = 0) {
  auto& flight = obs::FlightRecorder::Instance();
  if (flight.enabled()) flight.Record(obs::FlightKind::kNetState, label, a, b);
}

// The `T` alternative of a reused frame, keeping its buffers when the frame
// already holds one.
template <typename T>
T& Reuse(WireMessage& frame) {
  if (auto* held = std::get_if<T>(&frame)) return *held;
  return frame.emplace<T>();
}

// The layout a valid topology's placements spell.
ShardLayout LayoutOf(const ClusterTopology& topology) {
  std::string error;
  SPECSYNC_CHECK(topology.Validate(&error)) << error;
  std::vector<std::size_t> lengths;
  lengths.reserve(topology.shards.size());
  for (const ShardPlacement& shard : topology.shards) {
    lengths.push_back(shard.length);
  }
  return ShardLayout::FromLengths(lengths);
}

}  // namespace

std::vector<std::vector<std::size_t>> PlanPullBatches(
    const ClusterTopology& topology, std::size_t max_payload_bytes) {
  const std::vector<std::size_t> shard_link = topology.ShardLinkIndex();
  constexpr std::size_t kNoBatch = ~std::size_t{0};
  // Per link, the batch still being filled; per batch, its response payload.
  std::vector<std::size_t> open(topology.DistinctEndpoints().size(), kNoBatch);
  std::vector<std::size_t> payload;
  std::vector<std::vector<std::size_t>> batches;
  for (std::size_t s = 0; s < topology.shards.size(); ++s) {
    const std::size_t item = PullBatchFullItemBytes(topology.shards[s].length);
    std::size_t& b = open[shard_link[s]];
    if (b == kNoBatch || payload[b] + item > max_payload_bytes) {
      b = batches.size();
      batches.emplace_back();
      payload.push_back(kPullBatchRespHeadBytes);
    }
    batches[b].push_back(s);
    payload[b] += item;
  }
  return batches;
}

// A caller's wait state, stack-owned by its Ticket. The receiver finds it
// through the pending table and fulfills it under the link's state mutex.
struct ShardClient::PendingSlot {
  std::condition_variable cv;
  bool done = false;    // response arrived (guarded by Link::mutex)
  bool failed = false;  // link died; retry now (guarded by Link::mutex)
  WireMessage response;
};

// One multiplexed connection to one server endpoint.
struct ShardClient::Link {
  Endpoint endpoint;

  // Send path. Serializes socket writes only; never held together with
  // `mutex` except that EnsureLink briefly takes it (alone) to swap in a
  // fresh connection, and a failed sender shuts the socket down under it so
  // shutdown cannot race that swap.
  std::mutex send_mutex;

  // State path: pending table, id allocation, link status.
  std::mutex mutex;
  std::condition_variable reconnect_cv;
  std::unordered_map<std::uint64_t, PendingSlot*> pending;  // guarded by mutex
  std::uint64_t next_id = 1;                                // guarded by mutex
  bool link_up = false;                                     // guarded by mutex
  bool reconnecting = false;                                // guarded by mutex

  // Swapped only by the single reconnecting thread after the receiver has
  // been joined; read concurrently by senders (send_mutex) and the receiver.
  TcpConnection connection;
  std::thread receiver;

  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> timeouts{0};
  std::atomic<std::uint64_t> reconnects{0};
  std::atomic<std::uint64_t> stale_frames{0};
  std::atomic<std::uint64_t> injected_drops{0};
  std::atomic<std::uint64_t> injected_delays{0};
  std::atomic<std::uint64_t> injected_duplicates{0};
  // Wire bytes that were not first-attempt goodput: retried attempts' frames
  // plus the second copy of injected duplicates. Dropped attempts never reach
  // the socket, so they add nothing here.
  std::atomic<std::uint64_t> retransmit_bytes{0};

  // Registry mirrors of the per-link state, labeled with this link's
  // endpoint; null without an attached MetricsRegistry.
  obs::LatencyHistogram* rtt_hist = nullptr;
  obs::Counter* reconnects_counter = nullptr;
  obs::Counter* stale_counter = nullptr;
  obs::Counter* deaths_counter = nullptr;
  obs::Counter* retransmit_counter = nullptr;
  obs::Gauge* in_flight_gauge = nullptr;
  obs::Gauge* pending_gauge = nullptr;

  // Call under `mutex` after any pending-table mutation.
  void SyncPendingGauge() {
    if (pending_gauge != nullptr) {
      pending_gauge->Set(static_cast<double>(pending.size()));
    }
  }
};

// One logical request's lifecycle across attempts. Owns the slot; the
// destructor deregisters a still-pending entry so the receiver can never
// touch a freed slot even when an exception unwinds mid-batch.
struct ShardClient::Ticket {
  Link* link = nullptr;
  std::size_t shard = 0;
  const WireMessage* request = nullptr;  // caller-owned, outlives the ticket
  std::unique_ptr<PendingSlot> slot;
  std::uint64_t id = 0;
  // Stable across retry attempts (unlike `id`); 0 = tracing off.
  std::uint64_t trace_id = 0;
  std::uint64_t started_ns = 0;
  std::chrono::steady_clock::time_point sent_at{};
  std::size_t attempts = 0;
  bool in_flight = false;

  Ticket() = default;
  Ticket(Ticket&& other) noexcept { *this = std::move(other); }
  Ticket& operator=(Ticket&& other) noexcept {
    if (this != &other) {
      Abandon();
      link = std::exchange(other.link, nullptr);
      shard = other.shard;
      request = std::exchange(other.request, nullptr);
      slot = std::move(other.slot);
      id = other.id;
      trace_id = other.trace_id;
      started_ns = other.started_ns;
      sent_at = other.sent_at;
      attempts = other.attempts;
      // Raw transfer: the in-flight gauge tracks the logical request, which
      // just changed owner, not state.
      in_flight = std::exchange(other.in_flight, false);
    }
    return *this;
  }
  Ticket(const Ticket&) = delete;
  Ticket& operator=(const Ticket&) = delete;
  ~Ticket() { Abandon(); }

  // Flips the flag and keeps the per-link in-flight gauge in step; every
  // state change (as opposed to ownership transfer) goes through here.
  void SetInFlight(bool value) {
    if (in_flight == value) return;
    in_flight = value;
    if (link != nullptr && link->in_flight_gauge != nullptr) {
      link->in_flight_gauge->Add(value ? 1.0 : -1.0);
    }
  }

  void Abandon() {
    if (link != nullptr && in_flight) {
      std::scoped_lock lock(link->mutex);
      link->pending.erase(id);
      link->SyncPendingGauge();
      SetInFlight(false);
    }
  }
};

ShardClient::ShardClient(ShardClientConfig config, FaultPlan* faults,
                         obs::MetricsRegistry* metrics,
                         obs::SpanRecorder* spans)
    : config_(std::move(config)),
      layout_(LayoutOf(config_.topology)),
      faults_(faults),
      spans_(spans),
      client_id_(NextProcessUniqueId()) {
  SPECSYNC_CHECK_GT(config_.max_attempts, 0u);
  shard_link_ = config_.topology.ShardLinkIndex();
  pull_batches_ = PlanPullBatches(config_.topology);
  // The batch a fused push frame carries: its server's first.
  link_pull_batch_.assign(config_.topology.DistinctEndpoints().size(),
                          pull_batches_.size());
  for (std::size_t b = pull_batches_.size(); b-- > 0;) {
    link_pull_batch_[shard_link_[pull_batches_[b].front()]] = b;
  }
  push_frames_.resize(link_pull_batch_.size());
  link_slices_.resize(link_pull_batch_.size());
  for (const Endpoint& endpoint : config_.topology.DistinctEndpoints()) {
    auto link = std::make_unique<Link>();
    link->endpoint = endpoint;
    links_.push_back(std::move(link));
  }
  if (metrics != nullptr) {
    rtt_hist_ = &metrics->histogram("net.rtt_s");
    retry_counter_ = &metrics->counter("net.retries");
    timeout_counter_ = &metrics->counter("net.timeouts");
    for (auto& link : links_) {
      // The brace block is the registry's label convention: the Prometheus
      // exporter renders it as {link="host:port"}, the JSON exporter keeps
      // the composite name verbatim.
      const std::string label = "{link=" + ToString(link->endpoint) + "}";
      link->rtt_hist = &metrics->histogram("net.link.rtt_s" + label);
      link->reconnects_counter =
          &metrics->counter("net.link.reconnects" + label);
      link->stale_counter = &metrics->counter("net.link.stale_frames" + label);
      link->deaths_counter = &metrics->counter("net.link.link_deaths" + label);
      link->retransmit_counter =
          &metrics->counter("net.link.retransmit_bytes" + label);
      link->in_flight_gauge = &metrics->gauge("net.link.in_flight" + label);
      link->pending_gauge = &metrics->gauge("net.link.pending_depth" + label);
    }
    if (config_.compression.delta_pulls()) {
      delta_hits_counter_ = &metrics->counter("net.codec.delta_hits");
      delta_misses_counter_ = &metrics->counter("net.codec.delta_misses");
      pull_saved_counter_ = &metrics->counter("net.codec.pull_bytes_saved");
    }
    if (config_.compression.kind == CodecKind::kInt8 ||
        config_.compression.kind == CodecKind::kFp16) {
      push_saved_counter_ = &metrics->counter("net.codec.push_bytes_saved");
    }
  }
  // Anchor the span clock before the first request so every span maps onto
  // a defined monotonic epoch (a runtime that owns a run clock has already
  // pinned it; EnsureWallEpochNanos is then a no-op).
  if (spans_ != nullptr) spans_->EnsureWallEpochNanos();
}

ShardClient::~ShardClient() {
  for (auto& link : links_) {
    {
      std::scoped_lock lock(link->mutex);
      link->link_up = false;
    }
    link->connection.ShutdownBoth();
    if (link->receiver.joinable()) link->receiver.join();
  }
}

bool ShardClient::Connect() {
  const auto deadline =
      std::chrono::steady_clock::now() + config_.connect_timeout;
  for (std::size_t l = 0; l < links_.size(); ++l) {
    while (!EnsureLink(*links_[l])) {
      if (std::chrono::steady_clock::now() >= deadline) {
        SPECSYNC_LOG(kWarning) << "ShardClient: endpoint "
                              << ToString(links_[l]->endpoint)
                              << " unreachable";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return true;
}

bool ShardClient::EnsureLink(Link& link) {
  std::unique_lock lock(link.mutex);
  if (link.link_up) return true;
  if (link.reconnecting) {
    // Someone else is already reconnecting; adopt their verdict as this
    // attempt's outcome so attempts stay bounded under a dead endpoint.
    link.reconnect_cv.wait(lock, [&] { return !link.reconnecting; });
    return link.link_up;
  }
  link.reconnecting = true;
  lock.unlock();

  // The old receiver (if any) is blocked in RecvFrame on the dead
  // connection; shutdown wakes it, then the join makes the swap below safe.
  link.connection.ShutdownBoth();
  if (link.receiver.joinable()) link.receiver.join();
  TcpConnection fresh = TcpConnection::Connect(link.endpoint);
  const bool up = fresh.valid();
  if (up) {
    std::scoped_lock send_lock(link.send_mutex);
    link.connection = std::move(fresh);
  }

  lock.lock();
  link.reconnecting = false;
  link.link_up = up;
  if (up) {
    RecordNetState("link_up", link.endpoint.port);
    link.receiver = std::thread([this, &link] { ReceiverLoop(&link); });
  }
  link.reconnect_cv.notify_all();
  return up;
}

void ShardClient::ReceiverLoop(Link* link) {
  std::vector<std::uint8_t> frame;
  constexpr auto kForever = std::chrono::steady_clock::time_point::max();
  for (;;) {
    const auto status = link->connection.RecvFrame(frame, kForever);
    if (status != TcpConnection::RecvStatus::kFrame) break;
    std::uint64_t id = 0;
    WireMessage response;
    if (DecodeFrame(frame, id, response) != WireStatus::kOk) break;
    std::scoped_lock lock(link->mutex);
    const auto it = link->pending.find(id);
    if (it == link->pending.end()) {
      // Late answer to a timed-out attempt, or the echo of an injected
      // duplicate: nobody is waiting for this id any more.
      link->stale_frames.fetch_add(1, std::memory_order_relaxed);
      if (link->stale_counter != nullptr) link->stale_counter->Increment();
      continue;
    }
    PendingSlot* slot = it->second;
    link->pending.erase(it);
    link->SyncPendingGauge();
    slot->response = std::move(response);
    slot->done = true;
    slot->cv.notify_one();
  }
  // The link is dead (EOF, error, or lost framing). Fail every waiter so it
  // retries immediately instead of burning its full timeout; the first
  // retrying caller runs the reconnect.
  if (link->deaths_counter != nullptr) link->deaths_counter->Increment();
  RecordNetState("link_down", link->endpoint.port);
  std::scoped_lock lock(link->mutex);
  link->link_up = false;
  for (auto& [id, slot] : link->pending) {
    slot->failed = true;
    slot->cv.notify_one();
  }
  link->pending.clear();
  link->SyncPendingGauge();
}

ShardClient::Ticket ShardClient::MakeTicket(std::size_t shard,
                                            const WireMessage* request) {
  SPECSYNC_CHECK_LT(shard, num_shards());
  Ticket ticket;
  ticket.link = links_[shard_link_[shard]].get();
  ticket.shard = shard;
  ticket.request = request;
  ticket.slot = std::make_unique<PendingSlot>();
  ticket.link->requests.fetch_add(1, std::memory_order_relaxed);
  if (spans_ != nullptr) {
    ticket.trace_id = NextProcessUniqueId();
    ticket.started_ns = obs::WallNanos();
  }
  return ticket;
}

void ShardClient::IssueAttempt(Ticket& ticket) {
  Link& link = *ticket.link;
  if (ticket.attempts > 0) {
    link.retries.fetch_add(1, std::memory_order_relaxed);
    if (retry_counter_ != nullptr) retry_counter_->Increment();
  }
  ++ticket.attempts;

  FaultDecision decision;
  if (faults_ != nullptr && faults_->enabled()) {
    decision = faults_->OnMessage(LinkClass::kData);
  }
  if (decision.extra_delay > Duration::Zero()) {
    link.injected_delays.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(decision.extra_delay.seconds()));
  }

  // (Re)establish the link if it is down. Counted as a reconnect only when
  // an actual reconnect round ran; the attempt is consumed either way, so a
  // dead endpoint exhausts max_attempts instead of looping forever.
  bool was_down;
  {
    std::scoped_lock lock(link.mutex);
    was_down = !link.link_up;
  }
  if (was_down) {
    link.reconnects.fetch_add(1, std::memory_order_relaxed);
    if (link.reconnects_counter != nullptr) {
      link.reconnects_counter->Increment();
    }
    if (!EnsureLink(link)) return;  // attempt consumed
  }

  // Register the pending entry *before* sending: the response can race back
  // on the receiver thread before this thread even returns from SendAll.
  {
    std::scoped_lock lock(link.mutex);
    if (!link.link_up) return;  // died in the gap; next attempt reconnects
    ticket.id = link.next_id++;
    ticket.slot->done = false;
    ticket.slot->failed = false;
    link.pending.emplace(ticket.id, ticket.slot.get());
    link.SyncPendingGauge();
  }
  // The same trace context rides every attempt (the id is per-attempt, the
  // trace is per logical request), so the server's serve spans for retries
  // and duplicates all flow from one client span.
  const TraceContext trace{ticket.trace_id, ticket.trace_id};
  const std::vector<std::uint8_t> bytes = EncodeFrame(
      *ticket.request, ticket.id, ticket.trace_id != 0 ? &trace : nullptr);
  ticket.sent_at = std::chrono::steady_clock::now();

  if (decision.drop) {
    // The frame vanishes in the wire: never sent, so this attempt can only
    // time out. The retry after the timeout is the recovery path.
    link.injected_drops.fetch_add(1, std::memory_order_relaxed);
    ticket.SetInFlight(true);
    return;
  }

  bool sent;
  {
    // The send happens outside the state mutex on purpose: under deep
    // pipelining a full kernel buffer blocks this send until the server
    // drains, which requires our receiver to keep consuming — so the
    // receiver must never contend with a blocked sender for the state lock.
    std::scoped_lock send_lock(link.send_mutex);
    sent = link.connection.SendAll(bytes);
    if (sent && decision.duplicate) {
      link.injected_duplicates.fetch_add(1, std::memory_order_relaxed);
      sent = link.connection.SendAll(bytes);
      // The second copy is pure overhead — it can only become a stale frame.
      link.retransmit_bytes.fetch_add(bytes.size(),
                                      std::memory_order_relaxed);
      if (link.retransmit_counter != nullptr) {
        link.retransmit_counter->Increment(bytes.size());
      }
    }
    // Shut down under the send mutex so this cannot race EnsureLink's
    // connection swap.
    if (!sent) link.connection.ShutdownBoth();
  }
  if (sent && ticket.attempts > 1) {
    // attempts was already bumped for this attempt, so >1 means this frame
    // repeats an earlier send: its bytes are retransmission, not goodput.
    link.retransmit_bytes.fetch_add(bytes.size(), std::memory_order_relaxed);
    if (link.retransmit_counter != nullptr) {
      link.retransmit_counter->Increment(bytes.size());
    }
  }
  if (!sent) {
    std::scoped_lock lock(link.mutex);
    link.pending.erase(ticket.id);
    link.SyncPendingGauge();
    link.link_up = false;
    return;  // attempt consumed; next attempt reconnects
  }
  ticket.SetInFlight(true);
}

void ShardClient::IssueUntilInFlight(Ticket& ticket) {
  while (!ticket.in_flight) {
    if (ticket.attempts >= config_.max_attempts) {
      // The record lands before the throw, so a crash dump still shows which
      // shard was lost and how far this client's pushes had committed.
      const std::uint64_t acked =
          last_acked_version_.load(std::memory_order_relaxed);
      RecordNetState("shard_unreachable",
                     static_cast<std::int64_t>(ticket.shard),
                     static_cast<std::int64_t>(acked));
      SPECSYNC_CHECK(ticket.attempts < config_.max_attempts)
          << "shard " << ticket.shard << " at "
          << ToString(ticket.link->endpoint) << " unreachable after "
          << ticket.attempts << " attempts; this client's pushes were last "
          << "acked at global version " << acked;
    }
    IssueAttempt(ticket);
  }
}

WireMessage ShardClient::Await(Ticket& ticket) {
  Link& link = *ticket.link;
  for (;;) {
    bool done = false;
    {
      std::unique_lock lock(link.mutex);
      const auto deadline = ticket.sent_at + config_.request_timeout;
      ticket.slot->cv.wait_until(lock, deadline, [&] {
        return ticket.slot->done || ticket.slot->failed;
      });
      done = ticket.slot->done;
      if (!done) {
        if (!ticket.slot->failed) {
          // Timed out: deregister so a late frame for this id counts as
          // stale instead of fulfilling a slot nobody awaits.
          link.pending.erase(ticket.id);
          link.SyncPendingGauge();
          link.timeouts.fetch_add(1, std::memory_order_relaxed);
          if (timeout_counter_ != nullptr) timeout_counter_->Increment();
        }
        // On failure the receiver already deregistered everything.
        ticket.SetInFlight(false);
      }
    }
    if (done) {
      ticket.SetInFlight(false);
      const double rtt = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - ticket.sent_at)
                             .count();
      if (rtt_hist_ != nullptr) {
        rtt_hist_->Record(rtt);
        link.rtt_hist->Record(rtt);
      }
      if (spans_ != nullptr && ticket.trace_id != 0) RecordClientSpan(ticket);
      if (const auto* ack = std::get_if<AckResp>(&ticket.slot->response)) {
        // Error acks mean the client routed a request the server does not
        // own — a wiring bug, not a transient fault.
        SPECSYNC_CHECK(ack->status == kAckOk)
            << "shard " << ticket.shard << " rejected request (status "
            << ack->status << ")";
      }
      return std::move(ticket.slot->response);
    }
    IssueUntilInFlight(ticket);
  }
}

void ShardClient::RecordClientSpan(const Ticket& ticket) {
  const std::uint64_t end_ns = obs::WallNanos();
  const std::uint64_t epoch = spans_->EnsureWallEpochNanos();
  const double begin_s =
      ticket.started_ns > epoch ? (ticket.started_ns - epoch) * 1e-9 : 0.0;
  const double end_s = end_ns > epoch ? (end_ns - epoch) * 1e-9 : 0.0;
  const char* name = "pull.req";
  if (std::holds_alternative<CommitPushReq>(*ticket.request)) {
    name = "push.req";
  } else if (std::holds_alternative<PushPullReq>(*ticket.request)) {
    name = "pushpull.req";
  }
  spans_->AddSpanWithFlow(
      name, "net.client", config_.trace_track, SimTime::FromSeconds(begin_s),
      SimTime::FromSeconds(end_s), /*flow_out=*/ticket.trace_id,
      /*flow_in=*/0,
      {{"trace_id", TraceIdHex(ticket.trace_id)},
       {"shard", std::to_string(ticket.shard)},
       {"attempts", std::to_string(ticket.attempts)}});
}

WireMessage ShardClient::Call(std::size_t shard, const WireMessage& request) {
  Ticket ticket = MakeTicket(shard, &request);
  IssueUntilInFlight(ticket);
  return Await(ticket);
}

ShardPullResult ShardClient::PullShard(std::size_t s) {
  SPECSYNC_CHECK_LT(s, num_shards());
  WireMessage response = Call(s, PullShardReq{static_cast<std::uint32_t>(s)});
  auto* resp = std::get_if<PullShardResp>(&response);
  SPECSYNC_CHECK(resp != nullptr);
  SPECSYNC_CHECK_EQ(resp->offset, layout_.offset(s));
  SPECSYNC_CHECK_EQ(resp->params.size(), layout_.length(s));
  ShardPullResult out;
  out.offset = resp->offset;
  out.params = std::move(resp->params);
  out.shard_version = resp->shard_version;
  out.version = resp->global_version;
  return out;
}

PullResult ShardClient::Pull() {
  PullResult out;
  Exchange(nullptr, 0, &out);
  return out;
}

std::uint64_t ShardClient::Push(const Gradient& grad, EpochId epoch) {
  return Exchange(&grad, epoch, nullptr);
}

ShardClient::PushPullResult ShardClient::PushAndPull(const Gradient& grad,
                                                     EpochId epoch) {
  PushPullResult out;
  out.version = Exchange(&grad, epoch, &out.pull);
  return out;
}

std::uint64_t ShardClient::Exchange(const Gradient* grad, EpochId epoch,
                                    PullResult* pull) {
  // One sequence number per logical push, the same on every retry attempt.
  // Serializing pushes keeps each server's view of this client's sequence
  // in order, which is what lets a single watermark reject every repeat.
  // Lock order: push, then cache.
  std::unique_lock<std::mutex> push_lock;
  if (grad != nullptr) {
    push_lock = std::unique_lock<std::mutex>(push_mutex_);
    BuildPushFrames(*grad, epoch, /*fused=*/pull != nullptr);
  }

  // Delta mode: each entry carries the version of the copy we cache (or
  // kPullAnyVersion before the first pull); the server answers a shard still
  // at that version with a not-modified item, and we compose it from the
  // cache. Delta is lossless — an unchanged shard version implies unchanged
  // content, both read under the same shard lock server-side. The cache lock
  // is held across the whole pull so concurrent pulls on one client see a
  // consistent cache (workers own their clients, so this serialization never
  // bites in practice).
  const bool delta = pull != nullptr && config_.compression.delta_pulls();
  std::unique_lock<std::mutex> cache_lock;
  if (delta) {
    cache_lock = std::unique_lock<std::mutex>(cache_mutex_);
    if (cached_versions_.empty()) {
      cached_versions_.assign(num_shards(), kPullAnyVersion);
      cached_params_.resize(num_shards());
    }
  }

  // The pull batches: a fused push frame carries its server's first batch;
  // every other batch is a plain PullBatchReq.
  std::vector<WireMessage> pull_frames;
  std::vector<std::size_t> plain_batches;
  if (pull != nullptr) {
    std::vector<bool> fused(pull_batches_.size(), false);
    if (grad != nullptr) {
      for (const std::size_t l : push_links_) {
        const std::size_t b = link_pull_batch_[l];
        FillPullBatch(b, delta, std::get<PushPullReq>(push_frames_[l]).pull);
        fused[b] = true;
      }
    }
    for (std::size_t b = 0; b < pull_batches_.size(); ++b) {
      if (fused[b]) continue;
      PullBatchReq batch;
      FillPullBatch(b, delta, batch);
      pull_frames.emplace_back(std::move(batch));
      plain_batches.push_back(b);
    }
  }

  // Issue every frame before awaiting any: they ride their links
  // back-to-back, so the exchange costs ~one round trip and one frame per
  // server, whatever the shard count.
  const std::size_t push_count = grad != nullptr ? push_links_.size() : 0;
  std::vector<Ticket> tickets;
  tickets.reserve(push_count + pull_frames.size());
  for (std::size_t i = 0; i < push_count; ++i) {
    const WireMessage& frame = push_frames_[push_links_[i]];
    const CommitPushReq& batch =
        pull != nullptr ? std::get<PushPullReq>(frame).push
                        : std::get<CommitPushReq>(frame);
    tickets.push_back(MakeTicket(batch.slices.front().shard, &frame));
  }
  for (std::size_t i = 0; i < pull_frames.size(); ++i) {
    tickets.push_back(
        MakeTicket(pull_batches_[plain_batches[i]].front(), &pull_frames[i]));
  }
  for (Ticket& ticket : tickets) IssueUntilInFlight(ticket);

  if (pull != nullptr) pull->params.resize(dim());
  std::uint64_t pushed = 0;
  std::uint64_t pulled = 0;
  for (std::size_t t = 0; t < tickets.size(); ++t) {
    WireMessage response = Await(tickets[t]);
    if (t >= push_count) {
      auto* batch = std::get_if<PullBatchResp>(&response);
      SPECSYNC_CHECK(batch != nullptr);
      pulled = std::max(pulled, ComposeBatch(plain_batches[t - push_count],
                                             delta, *batch, pull->params));
    } else if (pull == nullptr) {
      const auto* ack = std::get_if<AckResp>(&response);
      SPECSYNC_CHECK(ack != nullptr);
      pushed = std::max(pushed, ack->value);
    } else {
      auto* fused = std::get_if<PushPullResp>(&response);
      SPECSYNC_CHECK(fused != nullptr);
      pushed = std::max(pushed, fused->ack.value);
      pulled = std::max(pulled, ComposeBatch(link_pull_batch_[push_links_[t]],
                                             delta, fused->pull,
                                             pull->params));
    }
  }
  if (pull != nullptr) pull->version = pulled;
  if (grad != nullptr) {
    // Only pushes write, and they are serialized above.
    last_acked_version_.store(
        std::max(pushed, last_acked_version_.load(std::memory_order_relaxed)),
        std::memory_order_relaxed);
  }
  return pushed;
}

void ShardClient::FillPullBatch(std::size_t b, bool delta,
                                PullBatchReq& batch) const {
  const std::vector<std::size_t>& shards = pull_batches_[b];
  batch.entries.resize(shards.size());
  for (std::size_t i = 0; i < shards.size(); ++i) {
    batch.entries[i] = {static_cast<std::uint32_t>(shards[i]),
                        delta ? cached_versions_[shards[i]] : kPullAnyVersion};
  }
}

std::uint64_t ShardClient::ComposeBatch(std::size_t b, bool delta,
                                        PullBatchResp& batch,
                                        std::vector<double>& params) {
  const std::vector<std::size_t>& shards = pull_batches_[b];
  SPECSYNC_CHECK_EQ(batch.items.size(), shards.size());
  std::uint64_t version = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    version = std::max(
        version, ComposeShard(shards[i], delta, batch.items[i], params));
  }
  return version;
}

std::uint64_t ShardClient::ComposeShard(std::size_t s, bool delta,
                                        PullBatchItem& item,
                                        std::vector<double>& params) {
  const std::size_t length = layout_.length(s);
  const auto at =
      params.begin() + static_cast<std::ptrdiff_t>(layout_.offset(s));
  if (const auto* unchanged = std::get_if<PullShardNotModified>(&item)) {
    SPECSYNC_CHECK(delta);
    SPECSYNC_CHECK_EQ(unchanged->shard, s);
    SPECSYNC_CHECK_EQ(unchanged->shard_version, cached_versions_[s]);
    const std::vector<double>& cached = cached_params_[s];
    SPECSYNC_CHECK_EQ(cached.size(), length);
    std::copy(cached.begin(), cached.end(), at);
    delta_hits_.fetch_add(1, std::memory_order_relaxed);
    if (delta_hits_counter_ != nullptr) delta_hits_counter_->Increment();
    if (pull_saved_counter_ != nullptr) {
      // The avoided payload: the shard's parameter doubles that a full
      // item would have carried.
      pull_saved_counter_->Increment(length * sizeof(double));
    }
    return unchanged->global_version;
  }
  auto& resp = std::get<PullShardResp>(item);
  SPECSYNC_CHECK_EQ(resp.shard, s);
  SPECSYNC_CHECK_EQ(resp.offset, layout_.offset(s));
  SPECSYNC_CHECK_EQ(resp.params.size(), length);
  std::copy(resp.params.begin(), resp.params.end(), at);
  if (delta) {
    cached_params_[s] = std::move(resp.params);
    cached_versions_[s] = resp.shard_version;
    delta_misses_.fetch_add(1, std::memory_order_relaxed);
    if (delta_misses_counter_ != nullptr) delta_misses_counter_->Increment();
  }
  return resp.global_version;
}

void ShardClient::BuildPushFrames(const Gradient& grad, EpochId epoch,
                                  bool fused) {
  // int8/fp16 ship the kind-2 coded encoding; the gradient must already be
  // codec-transformed so the doubles re-quantize to exactly the bits the
  // server will decode (ps/compression.h's idempotency contract).
  const CodecKind kind = config_.compression.kind;
  const std::uint8_t coded =
      (kind == CodecKind::kInt8 || kind == CodecKind::kFp16)
          ? static_cast<std::uint8_t>(kind)
          : 0;

  // The shards the push touches, ascending, each with its entry range: the
  // store's own routing, so client and server cut a push alike.
  layout_.RouteInto(grad, push_routes_);

  // One batch per server touched, ordered by first shard, each holding its
  // shards' slices in shard order. Frames and slices are reused across
  // pushes, so steady-state pushes refill buffers instead of growing them.
  const std::uint64_t push_seq = ++push_seq_;
  push_links_.clear();
  std::fill(link_slices_.begin(), link_slices_.end(), 0);
  for (const ShardRoute& route : push_routes_) {
    const std::size_t l = shard_link_[route.shard];
    if (link_slices_[l]++ == 0) push_links_.push_back(l);
  }
  for (const std::size_t l : push_links_) {
    CommitPushReq& batch = fused ? Reuse<PushPullReq>(push_frames_[l]).push
                                 : Reuse<CommitPushReq>(push_frames_[l]);
    batch.client_id = client_id_;
    batch.push_seq = push_seq;
    batch.slices.resize(link_slices_[l]);
    link_slices_[l] = 0;  // now the fill position below
  }
  for (const ShardRoute& route : push_routes_) {
    const std::size_t s = route.shard;
    const std::size_t l = shard_link_[s];
    WireMessage& frame = push_frames_[l];
    CommitPushReq& batch = fused ? std::get<PushPullReq>(frame).push
                                 : std::get<CommitPushReq>(frame);
    PushShardReq& slice = batch.slices[link_slices_[l]++];
    slice.shard = static_cast<std::uint32_t>(s);
    slice.epoch = epoch;
    slice.sparse = grad.is_sparse();
    slice.coded = coded;
    slice.indices.clear();
    slice.values.clear();
    if (!slice.sparse) {
      // A dense route's range is the shard's slice.
      slice.dense_offset = route.begin;
      const auto dense = grad.dense().begin();
      slice.dense.assign(dense + static_cast<std::ptrdiff_t>(route.begin),
                         dense + static_cast<std::ptrdiff_t>(route.end));
      continue;
    }
    slice.dense_offset = 0;
    slice.dense.clear();
    // The range holds every entry of the shard, and other shards' entries
    // too when the indices are unsorted: keep the shard's, in order.
    const std::size_t lo = layout_.offset(s);
    const std::size_t hi = lo + layout_.length(s);
    const auto indices = grad.sparse().indices();
    const auto values = grad.sparse().values();
    for (std::size_t i = route.begin; i < route.end; ++i) {
      if (indices[i] < lo || indices[i] >= hi) continue;
      slice.indices.push_back(indices[i]);
      slice.values.push_back(values[i]);
    }
  }

  if (coded != 0 && push_saved_counter_ != nullptr) {
    // Payload delta vs the classic encoding, by the byte model the
    // simulator charges (indices+doubles vs indices+quantized values).
    push_saved_counter_->Increment(
        CodeRoutes(kind, grad.is_sparse(), push_routes_));
  }
}

ShardClient::Stats ShardClient::stats() const {
  Stats out;
  for (const auto& link : links_) {
    out.requests += link->requests.load(std::memory_order_relaxed);
    out.retries += link->retries.load(std::memory_order_relaxed);
    out.timeouts += link->timeouts.load(std::memory_order_relaxed);
    out.reconnects += link->reconnects.load(std::memory_order_relaxed);
    out.stale_frames += link->stale_frames.load(std::memory_order_relaxed);
    out.injected_drops += link->injected_drops.load(std::memory_order_relaxed);
    out.injected_delays +=
        link->injected_delays.load(std::memory_order_relaxed);
    out.injected_duplicates +=
        link->injected_duplicates.load(std::memory_order_relaxed);
    out.retransmit_bytes +=
        link->retransmit_bytes.load(std::memory_order_relaxed);
  }
  out.delta_hits = delta_hits_.load(std::memory_order_relaxed);
  out.delta_misses = delta_misses_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace specsync::net
