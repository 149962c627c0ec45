#include "net/shard_client.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
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

// One connection to one server endpoint.
struct ShardClient::Link {
  Endpoint endpoint;
  // Invalid while the link is down; the next attempt on it reconnects.
  TcpConnection connection;
  // Never reset, not even by a reconnect: a late reply can never carry the
  // id of a later attempt.
  std::uint64_t next_id = 1;

  std::uint64_t requests = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t stale_frames = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_delays = 0;
  std::uint64_t injected_duplicates = 0;
  // Wire bytes that were not first-attempt goodput: retried attempts' frames
  // plus the second copy of injected duplicates. Dropped attempts never reach
  // the socket, so they add nothing here.
  std::uint64_t retransmit_bytes = 0;

  // Registry mirrors of the per-link state, labeled with this link's
  // endpoint; null without an attached MetricsRegistry.
  obs::LatencyHistogram* rtt_hist = nullptr;
  obs::Counter* reconnects_counter = nullptr;
  obs::Counter* stale_counter = nullptr;
  obs::Counter* deaths_counter = nullptr;
  obs::Counter* retransmit_counter = nullptr;
  obs::Gauge* in_flight_gauge = nullptr;
  obs::Gauge* pending_gauge = nullptr;

  void CountRetransmit(std::size_t bytes) {
    retransmit_bytes += bytes;
    if (retransmit_counter != nullptr) retransmit_counter->Increment(bytes);
  }
};

// One logical request of an exchange, across its attempts.
struct ShardClient::Ticket {
  Link* link = nullptr;
  std::size_t shard = 0;
  const WireMessage* request = nullptr;  // caller-owned, outlives the ticket
  std::uint64_t id = 0;                  // the current attempt's
  // Stable across retry attempts (unlike `id`); 0 = tracing off.
  std::uint64_t trace_id = 0;
  std::uint64_t started_ns = 0;
  std::chrono::steady_clock::time_point sent_at{};
  std::size_t attempts = 0;
  bool in_flight = false;  // the current attempt's reply is still due
  bool done = false;       // `response` holds the reply
  WireMessage response;

  // Every change of `in_flight` goes through here, keeping the link's
  // gauges (summed over every client sharing the registry) in step.
  void SetInFlight(bool value) {
    if (in_flight == value) return;
    in_flight = value;
    if (link->in_flight_gauge != nullptr) {
      const double delta = value ? 1.0 : -1.0;
      link->in_flight_gauge->Add(delta);
      link->pending_gauge->Add(delta);
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
    links_.emplace_back().endpoint = endpoint;
  }
  if (metrics != nullptr) {
    rtt_hist_ = &metrics->histogram("net.rtt_s");
    retry_counter_ = &metrics->counter("net.retries");
    timeout_counter_ = &metrics->counter("net.timeouts");
    for (Link& link : links_) {
      // The brace block is the registry's label convention: the Prometheus
      // exporter renders it as {link="host:port"}, the JSON exporter keeps
      // the composite name verbatim.
      const std::string label = "{link=" + ToString(link.endpoint) + "}";
      link.rtt_hist = &metrics->histogram("net.link.rtt_s" + label);
      link.reconnects_counter =
          &metrics->counter("net.link.reconnects" + label);
      link.stale_counter = &metrics->counter("net.link.stale_frames" + label);
      link.deaths_counter = &metrics->counter("net.link.link_deaths" + label);
      link.retransmit_counter =
          &metrics->counter("net.link.retransmit_bytes" + label);
      link.in_flight_gauge = &metrics->gauge("net.link.in_flight" + label);
      link.pending_gauge = &metrics->gauge("net.link.pending_depth" + label);
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

ShardClient::~ShardClient() = default;

std::size_t ShardClient::num_links() const { return links_.size(); }

bool ShardClient::Connect() {
  std::scoped_lock lock(call_mutex_);
  const auto deadline =
      std::chrono::steady_clock::now() + config_.connect_timeout;
  for (Link& link : links_) {
    while (!link.connection.valid() && !Reconnect(link)) {
      if (std::chrono::steady_clock::now() >= deadline) {
        SPECSYNC_LOG(kWarning) << "ShardClient: endpoint "
                              << ToString(link.endpoint) << " unreachable";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return true;
}

bool ShardClient::Reconnect(Link& link) {
  link.connection = TcpConnection::Connect(link.endpoint);
  if (!link.connection.valid()) return false;
  RecordNetState("link_up", link.endpoint.port);
  return true;
}

void ShardClient::KillLink(Link& link) {
  link.connection = TcpConnection();
  if (link.deaths_counter != nullptr) link.deaths_counter->Increment();
  RecordNetState("link_down", link.endpoint.port);
  for (Ticket& ticket : tickets_) {
    if (ticket.link == &link) ticket.SetInFlight(false);
  }
}

void ShardClient::AddTicket(std::size_t shard, const WireMessage* request) {
  SPECSYNC_CHECK_LT(shard, num_shards());
  Ticket& ticket = tickets_.emplace_back();
  ticket.link = &links_[shard_link_[shard]];
  ticket.shard = shard;
  ticket.request = request;
  ++ticket.link->requests;
  if (spans_ != nullptr) {
    ticket.trace_id = NextProcessUniqueId();
    ticket.started_ns = obs::WallNanos();
  }
}

void ShardClient::IssueAttempt(Ticket& ticket) {
  Link& link = *ticket.link;
  if (ticket.attempts > 0) {
    ++link.retries;
    if (retry_counter_ != nullptr) retry_counter_->Increment();
  }
  ++ticket.attempts;

  FaultDecision decision;
  if (faults_ != nullptr && faults_->enabled()) {
    decision = faults_->OnMessage(LinkClass::kData);
  }
  if (decision.extra_delay > Duration::Zero()) {
    ++link.injected_delays;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(decision.extra_delay.seconds()));
  }

  // Reconnect a dead link. The attempt is consumed either way, so a dead
  // endpoint exhausts max_attempts instead of looping forever.
  if (!link.connection.valid()) {
    ++link.reconnects;
    if (link.reconnects_counter != nullptr) {
      link.reconnects_counter->Increment();
    }
    if (!Reconnect(link)) return;
  }

  ticket.id = link.next_id++;
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
    ++link.injected_drops;
    ticket.SetInFlight(true);
    return;
  }

  bool sent = link.connection.SendAll(bytes);
  if (sent && decision.duplicate) {
    ++link.injected_duplicates;
    sent = link.connection.SendAll(bytes);
    // The second copy is pure overhead — it can only become a stale frame.
    link.CountRetransmit(bytes.size());
  }
  if (!sent) {
    KillLink(link);
    return;  // attempt consumed; the next one reconnects
  }
  // attempts was already bumped for this attempt, so >1 means this frame
  // repeats an earlier send: its bytes are retransmission, not goodput.
  if (ticket.attempts > 1) link.CountRetransmit(bytes.size());
  ticket.SetInFlight(true);
}

void ShardClient::IssueUntilInFlight(Ticket& ticket) {
  while (!ticket.in_flight) {
    if (ticket.attempts >= config_.max_attempts) {
      // The record lands before the throw, so a crash dump still shows which
      // shard was lost and how far this client's pushes had committed.
      RecordNetState("shard_unreachable",
                     static_cast<std::int64_t>(ticket.shard),
                     static_cast<std::int64_t>(last_acked_version_));
      SPECSYNC_CHECK(ticket.attempts < config_.max_attempts)
          << "shard " << ticket.shard << " at "
          << ToString(ticket.link->endpoint) << " unreachable after "
          << ticket.attempts << " attempts; this client's pushes were last "
          << "acked at global version " << last_acked_version_;
    }
    IssueAttempt(ticket);
  }
}

WireMessage ShardClient::Await(Ticket& ticket) {
  Link& link = *ticket.link;
  while (!ticket.done) {
    if (!ticket.in_flight) {
      IssueUntilInFlight(ticket);
      continue;
    }
    const auto status = link.connection.RecvFrame(
        recv_frame_, ticket.sent_at + config_.request_timeout);
    if (status == TcpConnection::RecvStatus::kTimeout && recv_frame_.empty()) {
      // No byte arrived by the deadline: the attempt timed out. Its late
      // reply, if any, will find no ticket and count as stale.
      ticket.SetInFlight(false);
      ++link.timeouts;
      if (timeout_counter_ != nullptr) timeout_counter_->Increment();
      continue;
    }
    std::uint64_t id = 0;
    WireMessage response;
    if (status != TcpConnection::RecvStatus::kFrame ||
        DecodeFrame(recv_frame_, id, response) != WireStatus::kOk) {
      // EOF, a socket error, a malformed frame, or a deadline that fell
      // mid-frame: either way the stream has lost its framing.
      KillLink(link);
      continue;
    }
    const auto owner =
        std::find_if(tickets_.begin(), tickets_.end(), [&](const Ticket& t) {
          return t.link == &link && t.in_flight && t.id == id;
        });
    if (owner == tickets_.end()) {
      // A late answer to a timed-out attempt, the echo of an injected
      // duplicate, or an attempt of an exchange that threw.
      ++link.stale_frames;
      if (link.stale_counter != nullptr) link.stale_counter->Increment();
      continue;
    }
    owner->SetInFlight(false);
    owner->done = true;
    owner->response = std::move(response);
    if (rtt_hist_ != nullptr) {
      const double rtt = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - owner->sent_at)
                             .count();
      rtt_hist_->Record(rtt);
      link.rtt_hist->Record(rtt);
    }
    if (spans_ != nullptr && owner->trace_id != 0) RecordClientSpan(*owner);
  }
  if (const auto* ack = std::get_if<AckResp>(&ticket.response)) {
    // Error acks mean the client routed a request the server does not
    // own — a wiring bug, not a transient fault.
    SPECSYNC_CHECK(ack->status == kAckOk)
        << "shard " << ticket.shard << " rejected request (status "
        << ack->status << ")";
  }
  return std::move(ticket.response);
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
  std::scoped_lock lock(call_mutex_);
  // An exchange that threw (a shard unreachable) left attempts outstanding;
  // their replies are stale from here on.
  for (Ticket& ticket : tickets_) ticket.SetInFlight(false);
  tickets_.clear();
  if (grad != nullptr) BuildPushFrames(*grad, epoch, /*fused=*/pull != nullptr);

  // Delta mode: each entry carries the version of the copy we cache (or
  // kPullAnyVersion before the first pull); the server answers a shard still
  // at that version with a not-modified item, and we compose it from the
  // cache. Delta is lossless — an unchanged shard version implies unchanged
  // content, both read under the same shard lock server-side.
  const bool delta = pull != nullptr && config_.compression.delta_pulls();
  if (delta && cached_versions_.empty()) {
    cached_versions_.assign(num_shards(), kPullAnyVersion);
    cached_params_.resize(num_shards());
  }

  // The pull batches: a fused push frame carries its server's first batch;
  // every other batch is a plain PullBatchReq.
  std::size_t plain = 0;
  plain_batches_.clear();
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
      if (plain == pull_frames_.size()) pull_frames_.emplace_back();
      FillPullBatch(b, delta, Reuse<PullBatchReq>(pull_frames_[plain++]));
      plain_batches_.push_back(b);
    }
  }

  // Send every frame before reading any reply: they ride their links
  // back-to-back, so the exchange costs ~one round trip and one frame per
  // server, whatever the shard count.
  const std::size_t push_count = grad != nullptr ? push_links_.size() : 0;
  for (std::size_t i = 0; i < push_count; ++i) {
    const WireMessage& frame = push_frames_[push_links_[i]];
    const CommitPushReq& batch =
        pull != nullptr ? std::get<PushPullReq>(frame).push
                        : std::get<CommitPushReq>(frame);
    AddTicket(batch.slices.front().shard, &frame);
  }
  for (std::size_t i = 0; i < plain; ++i) {
    AddTicket(pull_batches_[plain_batches_[i]].front(), &pull_frames_[i]);
  }
  for (Ticket& ticket : tickets_) IssueUntilInFlight(ticket);

  if (pull != nullptr) pull->params.resize(dim());
  std::uint64_t pushed = 0;
  std::uint64_t pulled = 0;
  for (std::size_t t = 0; t < tickets_.size(); ++t) {
    WireMessage response = Await(tickets_[t]);
    if (t >= push_count) {
      auto* batch = std::get_if<PullBatchResp>(&response);
      SPECSYNC_CHECK(batch != nullptr);
      pulled = std::max(pulled, ComposeBatch(plain_batches_[t - push_count],
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
  last_acked_version_ = std::max(last_acked_version_, pushed);
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
    ++delta_hits_;
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
    ++delta_misses_;
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
  std::scoped_lock lock(call_mutex_);
  Stats out;
  for (const Link& link : links_) {
    out.requests += link.requests;
    out.retries += link.retries;
    out.timeouts += link.timeouts;
    out.reconnects += link.reconnects;
    out.stale_frames += link.stale_frames;
    out.injected_drops += link.injected_drops;
    out.injected_delays += link.injected_delays;
    out.injected_duplicates += link.injected_duplicates;
    out.retransmit_bytes += link.retransmit_bytes;
  }
  out.delta_hits = delta_hits_;
  out.delta_misses = delta_misses_;
  return out;
}

}  // namespace specsync::net
