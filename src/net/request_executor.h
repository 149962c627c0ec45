// RequestExecutor: the server-side request→response function.
//
// Executing a decoded WireMessage against a ParameterServer is pure protocol
// logic — which shards this server owns, how a dense slice is validated, what
// an error ack looks like — kept apart from the event-loop server
// (EventLoopServer), which only decides how bytes reach Execute(), never
// what Execute() does.
//
// A composed pull is one PullBatchReq per server. The executor validates
// every shard in it, and that the answer fits one frame, before reading
// any, then snapshots each shard on its own (version and slice under that
// shard's lock, through ParameterServer::PullShardSlice) straight into the
// response frame (PullAnswerWriter): one copy per shard, no intermediate
// PullShardResp. A standalone PullShardReq is rejected: every pull is a
// batch.
//
// Pushes are exactly-once. A push is one CommitPushReq batch per server; the
// executor validates every slice (a dense slice must be its shard's exact
// range, every sparse entry must fall inside its slice's shard), then
// applies the slices in place (a sparse slice by row when it carries a row
// width) and commits under the sending client's
// watermark (PushWatermarks), so a retried, duplicated, or concurrently
// re-executed batch is answered from the cache instead of being applied
// again. A standalone PushShardReq is rejected: no path applies a gradient
// without passing the watermark.
//
// A PushPullReq fuses one push with the same client's next pull: the
// executor validates both halves, runs the push through the watermark, then
// serves the pull from the same task, so the snapshot always includes the
// push. A repeat gets the cached ack and a fresh pull; a frame with a bad
// half gets a plain error ack and changes nothing.
//
// Thread safety: Execute() is safe to call concurrently from any number of
// threads; the ParameterServer's per-shard locks and the per-client
// watermark locks are the serialization points, and the counters are atomics.
// One EventLoopServer calls it from each of its loop threads, one per core,
// at once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "ps/param_store.h"

namespace specsync::obs {
class MetricsRegistry;
class LatencyHistogram;
class SpanRecorder;
}  // namespace specsync::obs

namespace specsync::net {

// Aggregate request counters (bad_frames is owned by the transport layer —
// frames that never decode never reach the executor — and merged into this
// struct by the server's stats()).
struct ServerStats {
  // Shard snapshots read: one per pull batch entry (standalone or fused).
  std::uint64_t pulls = 0;
  // Slices applied, and push batches applied + committed.
  std::uint64_t pushes = 0;
  std::uint64_t commits = 0;
  // Push batches at or below their client's watermark: answered with the
  // cached ack, nothing applied.
  std::uint64_t duplicate_pushes = 0;
  // Requests answered with an error ack (bad shard / bad request).
  std::uint64_t rejected = 0;
  // Connections dropped on malformed frames or socket errors.
  std::uint64_t bad_frames = 0;
};

// Per-client exactly-once bookkeeping: the last applied push_seq and the ack
// it produced. Check, apply and record happen under that client's lock, so
// when two callers run copies of one frame at once, only one passes the
// check; the other waits, then gets the cached ack. Entries live as long as
// the server (one per client that ever pushed).
class PushWatermarks {
 public:
  struct Outcome {
    AckResp ack;
    bool duplicate = false;
  };

  // Runs `apply` (which returns the ack to cache) iff `push_seq` is above
  // the client's watermark; otherwise returns the cached ack of the last
  // applied push without running it.
  template <typename ApplyFn>
  Outcome ApplyOnce(std::uint64_t client_id, std::uint64_t push_seq,
                    ApplyFn&& apply) {
    Client& client = ClientFor(client_id);
    std::scoped_lock lock(client.mutex);
    if (push_seq <= client.last_seq) return {client.ack, true};
    client.ack = apply();
    client.last_seq = push_seq;
    return {client.ack, false};
  }

 private:
  struct Client {
    std::mutex mutex;
    std::uint64_t last_seq = 0;  // guarded by mutex; 0 = nothing applied
    AckResp ack;                 // guarded by mutex
  };

  Client& ClientFor(std::uint64_t client_id);

  // Guards the map's shape only; never held while a push applies.
  std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Client>> clients_;
};

class RequestExecutor {
 public:
  // `store` is not owned and must outlive the executor. `served_shards`
  // empty = all shards. `metrics` (optional) receives the
  // "net.server.pull_s" / "net.server.push_s" service-time histograms.
  // `service_delay` stalls every request's execution by that much before
  // touching the store — a test/bench injection point that makes service
  // time controllable when pinning pipelining behavior (zero = off).
  // `spans` (optional) records one "net.server" serve span per request that
  // arrived with a wire trace context (a batch is one request), flow-linked
  // back to the client span that caused it (DESIGN.md §14). Serve spans
  // land on track `span_track_base + shard` (a batch's first shard), letting
  // a recorder shared with other span sources (the in-process runtime) give
  // server activity its own tracks.
  RequestExecutor(ParameterServer* store,
                  std::vector<std::size_t> served_shards,
                  obs::MetricsRegistry* metrics = nullptr,
                  std::chrono::microseconds service_delay = {},
                  obs::SpanRecorder* spans = nullptr,
                  std::uint32_t span_track_base = 0);

  // Executes one decoded request and writes the encoded response frame,
  // answering `request_id`, into `response` (resized to the frame; reuse it
  // across requests and a steady stream of answers allocates nothing). A
  // response-typed message (a confused peer), a standalone PushShardReq and
  // a standalone PullShardReq get a kAckBadRequest ack.
  // `trace` (optional) is the request frame's trace context; valid contexts
  // become serve spans when a SpanRecorder is attached.
  void Execute(const WireMessage& request, std::uint64_t request_id,
               const TraceContext* trace, std::vector<std::uint8_t>& response);

  bool ServesShard(std::size_t shard) const;

  // Executor-side counters (bad_frames always 0 here).
  ServerStats stats() const;

 private:
  void ExecuteInner(const WireMessage& request, std::uint64_t request_id,
                    std::vector<std::uint8_t>& response);
  // Validates both halves, applies the push once, then serves the pull.
  void ExecutePushPull(const PushPullReq& fused, std::uint64_t request_id,
                       std::vector<std::uint8_t>& response);
  // Counts a rejected request and returns its error ack.
  AckResp Reject(std::uint32_t status, std::uint64_t value);
  // The error ack for a batch naming a shard this server does not own, or
  // whose answer (a PushPullResp when `fused`) would not fit one frame;
  // otherwise the doubles the answer carries, in `params`.
  std::optional<AckResp> ValidatePull(const PullBatchReq& batch, bool fused,
                                      std::size_t& params);
  // Writes the answer to a validated batch holding `params` doubles: each
  // entry's shard snapshotted straight into the frame, behind `ack` (a
  // PushPullResp) when that is non-null.
  void ServePull(const PullBatchReq& batch, std::size_t params,
                 const AckResp* ack, std::uint64_t request_id,
                 std::vector<std::uint8_t>& response);
  // The error ack for a batch that must not be applied.
  std::optional<AckResp> ValidatePush(const CommitPushReq& batch);
  // Applies + commits a validated batch once per (client, seq).
  AckResp ApplyPush(const CommitPushReq& batch);
  void ApplySlice(const PushShardReq& slice);

  ParameterServer* store_;
  std::vector<std::size_t> served_shards_;
  std::chrono::microseconds service_delay_;
  obs::SpanRecorder* spans_ = nullptr;
  std::uint32_t span_track_base_ = 0;
  PushWatermarks watermarks_;

  std::atomic<std::uint64_t> pulls_{0};
  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> commits_{0};
  std::atomic<std::uint64_t> duplicate_pushes_{0};
  std::atomic<std::uint64_t> rejected_{0};

  obs::LatencyHistogram* pull_hist_ = nullptr;
  obs::LatencyHistogram* push_hist_ = nullptr;
};

}  // namespace specsync::net
