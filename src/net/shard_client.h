// ShardClient: the worker side of the tcp transport (wire v2).
//
// One connection per distinct server endpoint — not per shard. All shards a
// server owns share that server's link, and one pull batch: a PullBatchReq
// naming the link's shards in shard order, built once. Pull() sends each
// link its batch and composes the answers: one round trip and one frame per
// server. Push() groups the per-shard slices by link and sends one
// CommitPushReq batch per server touched, which each server applies and
// commits exactly once. PushAndPull() is one round trip per iteration: each
// server the push touches gets one PushPullReq carrying its push batch and
// its pull batch, applied and then served in that order, so the snapshot
// includes the push; every other link gets its plain PullBatchReq
// alongside. All three share one routing, batch-building and composing
// path. A sparse slice whose route is aligned to its gradient's row width
// travels as rows (kind 3; RouteRowWidth, the store's own rule). The
// constructor refuses (CheckError, naming the endpoint and the byte count)
// a topology where one link's full answer would not fit one frame
// (PullAnswerPayloadBytes).
//
// One copy per shard. Each link encodes its request frames into one buffer
// it reuses across exchanges and attempts; a reply is read in place
// (DecodeAnswer), checked against the request (shard, offset and length of
// every item; an error ack fails loudly), and each shard's doubles are
// copied once, from the frame straight into the caller's snapshot. With a
// caller that reuses its PullResult, a steady-state exchange allocates
// nothing on the calling thread.
//
// The calling thread does its own receive. An exchange first sends every
// frame, then reads the replies itself from each link's blocking socket, in
// ticket order. A frame whose id belongs to another outstanding attempt of
// the same exchange on that link is kept for it; any other id (a late answer
// to a timed-out attempt, the echo of an injected duplicate) counts as stale
// and is dropped. A receive error, EOF, a malformed frame, or a deadline that
// falls mid-frame (the stream's framing is lost with the partial frame)
// kills the link: every outstanding attempt on it fails and retries at once
// on a fresh connection. There are no client threads.
//
// Why sending everything before reading cannot deadlock: the server never
// blocks on a write. EventLoopServer queues any unsent remainder of a reply
// in memory and keeps reading its sockets (DESIGN.md §13), so this client's
// sends always drain, however many replies it has not read yet.
//
// Reliability. Every request is timeout + bounded retry with a fresh id per
// attempt; ids grow monotonically per link for the client's life, so a late
// reply can never match a later attempt. Pulls are idempotent, so
// re-executing one is harmless (at-least-once). Pushes are exactly-once:
// each batch carries this client's process-unique client_id (stable across
// reconnects) and a push_seq that is the same on every attempt, and the
// server applies a (client_id, push_seq) at most once, answering repeats
// from its cached ack. A shard still unreachable after `max_attempts` fails
// loudly: a flight-recorder kNetState record, then a CheckError naming the
// request's (first) shard, the link's endpoint, the attempt count, and the
// global version this client's pushes were last acked at.
//
// Fault injection: with a FaultPlan attached, every attempt draws one
// data-link decision. Drop = the frame is never sent (the attempt burns its
// timeout), delay = the send is held back, duplicate = the frame is sent
// twice (exercising the server's duplicate-push watermark and the
// stale-frame discard).
//
// Thread safety: calls are serialized on one mutex, so a client may be
// shared, but its callers take turns. Give each worker its own client: that
// models independent machines, and their requests overlap on the server.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "fault/fault_plan.h"
#include "net/endpoint.h"
#include "net/wire.h"
#include "ps/param_store.h"
#include "ps/shard_layout.h"

namespace specsync::obs {
class MetricsRegistry;
class LatencyHistogram;
class Counter;
class Gauge;
class SpanRecorder;
}  // namespace specsync::obs

namespace specsync::net {

struct ShardClientConfig {
  // Shard → endpoint map (shard id = index; ShardLayout::Even is the
  // canonical slicing). The client routes pushes over the ShardLayout these
  // placements spell. Shards sharing an endpoint share one multiplexed
  // connection.
  ClusterTopology topology;
  // Per-attempt response deadline.
  std::chrono::milliseconds request_timeout{250};
  // Total attempts per request before declaring the shard unreachable.
  std::size_t max_attempts = 16;
  // Track ("tid") client request spans are recorded on when a SpanRecorder
  // is attached — give each worker its own track so its net spans interleave
  // with its compute spans on one timeline.
  std::uint32_t trace_track = 0;
};

class ShardClient {
 public:
  // `faults` (optional, not owned) injects data-link faults per attempt.
  // `metrics` (optional, not owned) receives the RTT histogram "net.rtt_s",
  // retry/timeout counters, and per-link instruments labeled {link=...}:
  // the RTT histogram "net.link.rtt_s", the counters
  // "net.link.{reconnects,stale_frames,link_deaths,retransmit_bytes}", and
  // the gauge "net.link.in_flight" (the attempts outstanding on the link).
  // `spans` (optional, not owned) records one "net.client" span per
  // completed request, stamped with a process-unique trace_id that also
  // rides every attempt's frame as the wire trace-context extension — the
  // server echoes it into its serve span, stitching the two across
  // processes (DESIGN.md §14).
  ShardClient(ShardClientConfig config, FaultPlan* faults = nullptr,
              obs::MetricsRegistry* metrics = nullptr,
              obs::SpanRecorder* spans = nullptr);
  ~ShardClient();

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  // Opens one connection per distinct endpoint (retrying for up to two
  // seconds, which covers a server racing its Start()). False if any
  // endpoint stays unreachable.
  bool Connect();

  // Composed full-vector snapshot: one PullBatchReq per server, all sent
  // before any reply is read, each shard checked against the topology. Like
  // the in-process store's composed Pull, the cross-shard snapshot may be
  // torn under concurrent pushes; `version` is the largest global version
  // any shard reported.
  PullResult Pull();
  // Pull() into `result`, reusing its params buffer when already sized.
  void PullInto(PullResult* result);

  // Routes `grad` to its owning shards (ShardLayout::RouteInto, as the
  // store routes) and sends one CommitPushReq batch per server touched, all
  // sent before any reply is read; each server applies its batch exactly
  // once. Returns the largest committed global version reported.
  std::uint64_t Push(const Gradient& grad, EpochId epoch);

  // Push() and the next PullInto(pull) in one round trip: one PushPullReq
  // per server the push touches (its push batch plus its pull batch) and a
  // plain PullBatchReq to every other server. Each server serves the pull
  // after applying the push, so `pull` includes this push (a retried frame
  // still applies once, and gets a fresh pull). Returns what Push()
  // returns.
  std::uint64_t PushAndPull(const Gradient& grad, EpochId epoch,
                            PullResult& pull);

  std::size_t dim() const { return layout_.dim(); }
  std::size_t num_shards() const { return layout_.num_shards(); }
  // Physical connections (distinct endpoints), not shards.
  std::size_t num_links() const;

  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t retries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t reconnects = 0;
    // Frames discarded because their id belonged to an abandoned attempt.
    std::uint64_t stale_frames = 0;
    std::uint64_t injected_drops = 0;
    std::uint64_t injected_delays = 0;
    std::uint64_t injected_duplicates = 0;
    // Wasted wire bytes: frames sent again for retried attempts plus the
    // second copy of injected duplicates. Kept apart from request traffic so
    // goodput accounting is not inflated by a lossy link's retry storm.
    std::uint64_t retransmit_bytes = 0;
  };
  Stats stats() const;

 private:
  struct Link;
  struct Ticket;

  // Opens a fresh connection on the link. False = the endpoint refused.
  bool Reconnect(Link& link);
  // Closes a dead link and fails every outstanding attempt on it, so each
  // retries on a fresh connection instead of burning its timeout.
  void KillLink(Link& link);
  // Queues a ticket for `request` (caller-owned, outliving the exchange) on
  // `shard`'s link, reusing a ticket (and its reply buffers) from an
  // earlier exchange when there is one.
  void AddTicket(std::size_t shard, const WireMessage* request);
  // The current exchange's tickets.
  std::span<Ticket> tickets();
  // One attempt: fault draw, reconnect if the link is down, send. Leaves the
  // ticket in flight on success; a failed attempt is consumed silently (the
  // caller loops).
  void IssueAttempt(Ticket& ticket);
  // Attempts until the ticket is in flight. Once max_attempts is exhausted,
  // records a flight-recorder kNetState event and fails with a CheckError
  // diagnosing the unreachable shard.
  void IssueUntilInFlight(Ticket& ticket);
  // Reads the ticket's link until its reply arrives, keeping replies for
  // the exchange's other tickets on that link and retrying timed-out and
  // link-failed attempts. Validates error acks. Returns the reply, read in
  // place: its views point into the ticket's reply buffer.
  const Answer& Await(Ticket& ticket);
  // Emits the completed request's "net.client" span (spans_ attached only).
  void RecordClientSpan(const Ticket& ticket);
  // The engine behind Push, Pull and PushAndPull: pushes `grad` when it is
  // non-null, pulls into `pull` when that is non-null (fusing the two per
  // server when both are), every frame sent before any reply is read.
  // Returns the largest global version the push was acked at (0 without a
  // push).
  std::uint64_t Exchange(const Gradient* grad, EpochId epoch,
                         PullResult* pull);
  // Routes `grad` into push_frames_ (PushPullReq frames carrying their
  // link's pull batch when `fused`, else CommitPushReq) under a fresh
  // push_seq and lists the links it touches in push_links_.
  void BuildPushFrames(const Gradient& grad, EpochId epoch, bool fused);
  // Link `link`'s pull batch: its shards, in shard order.
  const PullBatchReq& LinkPull(std::size_t link) const;
  // Checks the answer's items against `request` and the topology (shard,
  // offset and length, failing loudly on a mismatch), copies each shard
  // from the frame into `params`, and returns the largest global version
  // the items reported.
  std::uint64_t ComposeBatch(const PullBatchReq& request,
                             std::span<const PullItemView> items,
                             std::vector<double>& params) const;

  ShardClientConfig config_;
  // The shard geometry config_.topology spells.
  const ShardLayout layout_;
  FaultPlan* faults_;
  obs::SpanRecorder* spans_ = nullptr;
  // Exactly-once push identity: client_id_ is fixed for the client's life;
  // push_seq_ numbers logical pushes from 1.
  const std::uint64_t client_id_;

  // Serializes calls: everything below is guarded by it. Held across a whole
  // exchange, so each server sees this client's push_seqs in order — which
  // is what lets a single watermark reject every repeat.
  mutable std::mutex call_mutex_;
  std::uint64_t push_seq_ = 0;
  // Push buffers reused by every push: one frame per link, the current
  // push's routes and the links it touches, and per link its slice count.
  std::vector<WireMessage> push_frames_;
  std::vector<ShardRoute> push_routes_;
  std::vector<std::size_t> push_links_;
  std::vector<std::size_t> link_slices_;
  // One PullBatchReq frame per link (LinkPull), built by the constructor
  // and never changed, and the tickets: the current exchange's are the
  // first ticket_count_ (push frames first, in push_links_ order, then
  // plain pulls in link order); the rest wait, buffers kept, for reuse.
  std::vector<WireMessage> pull_frames_;
  std::vector<Ticket> tickets_;
  std::size_t ticket_count_ = 0;
  // The frame being received and its reply, read in place; both trade
  // buffers with the ticket the frame answers.
  std::vector<std::uint8_t> recv_frame_;
  Answer recv_answer_;
  // Largest global version any push batch was acked at (for diagnoses).
  std::uint64_t last_acked_version_ = 0;
  std::vector<std::size_t> shard_link_;  // shard id → links_ index
  std::vector<Link> links_;

  obs::LatencyHistogram* rtt_hist_ = nullptr;
  obs::Counter* retry_counter_ = nullptr;
  obs::Counter* timeout_counter_ = nullptr;
};

}  // namespace specsync::net
