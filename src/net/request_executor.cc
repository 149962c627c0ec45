#include "net/request_executor.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/sim_time.h"
#include "obs/metrics.h"
#include "obs/span_recorder.h"

namespace specsync::net {

PushWatermarks::Client& PushWatermarks::ClientFor(std::uint64_t client_id) {
  std::scoped_lock lock(mutex_);
  std::unique_ptr<Client>& client = clients_[client_id];
  if (client == nullptr) client = std::make_unique<Client>();
  return *client;
}

RequestExecutor::RequestExecutor(ParameterServer* store,
                                 std::vector<std::size_t> served_shards,
                                 obs::MetricsRegistry* metrics,
                                 std::chrono::microseconds service_delay,
                                 obs::SpanRecorder* spans,
                                 std::uint32_t span_track_base)
    : store_(store),
      served_shards_(std::move(served_shards)),
      service_delay_(service_delay),
      spans_(spans),
      span_track_base_(span_track_base) {
  SPECSYNC_CHECK(store_ != nullptr);
  for (std::size_t s : served_shards_) {
    SPECSYNC_CHECK_LT(s, store_->num_shards());
  }
  if (metrics != nullptr) {
    pull_hist_ = &metrics->histogram("net.server.pull_s");
    push_hist_ = &metrics->histogram("net.server.push_s");
  }
}

bool RequestExecutor::ServesShard(std::size_t shard) const {
  if (shard >= store_->num_shards()) return false;
  if (served_shards_.empty()) return true;
  return std::find(served_shards_.begin(), served_shards_.end(), shard) !=
         served_shards_.end();
}

void RequestExecutor::Execute(const WireMessage& request,
                              std::uint64_t request_id,
                              const TraceContext* trace,
                              std::vector<std::uint8_t>& response) {
  if (spans_ == nullptr || trace == nullptr || !trace->valid()) {
    ExecuteInner(request, request_id, response);
    return;
  }
  // The serve span covers everything the client's RTT contains on this side:
  // the injected service delay, shard-lock wait inside the store, and the
  // store work itself. flow_in ties it under the client span whose trace_id
  // the frame carried.
  const std::uint64_t epoch = spans_->EnsureWallEpochNanos();
  const std::uint64_t begin_ns = obs::WallNanos();
  ExecuteInner(request, request_id, response);
  const std::uint64_t end_ns = obs::WallNanos();
  const char* name = "serve.reject";
  std::uint32_t shard = 0;
  if (const auto* batch = std::get_if<PullBatchReq>(&request)) {
    name = "serve.pull";
    if (!batch->entries.empty()) shard = batch->entries.front().shard;
  } else if (const auto* push = std::get_if<CommitPushReq>(&request)) {
    name = "serve.push";
    if (!push->slices.empty()) shard = push->slices.front().shard;
  } else if (const auto* fused = std::get_if<PushPullReq>(&request)) {
    name = "serve.pushpull";
    if (!fused->push.slices.empty()) shard = fused->push.slices.front().shard;
  }
  const double begin_s =
      begin_ns > epoch ? (begin_ns - epoch) * 1e-9 : 0.0;
  const double end_s = end_ns > epoch ? (end_ns - epoch) * 1e-9 : 0.0;
  spans_->AddSpanWithFlow(name, "net.server", span_track_base_ + shard,
                          SimTime::FromSeconds(begin_s),
                          SimTime::FromSeconds(end_s), /*flow_out=*/0,
                          /*flow_in=*/trace->trace_id,
                          {{"trace_id", TraceIdHex(trace->trace_id)},
                           {"shard", std::to_string(shard)}});
}

void RequestExecutor::ExecuteInner(const WireMessage& request,
                                   std::uint64_t request_id,
                                   std::vector<std::uint8_t>& response) {
  if (service_delay_.count() > 0) {
    std::this_thread::sleep_for(service_delay_);
  }
  std::optional<AckResp> ack;
  if (const auto* batch = std::get_if<PullBatchReq>(&request)) {
    std::size_t params = 0;
    ack = ValidatePull(*batch, /*fused=*/false, params);
    if (!ack) {
      ServePull(*batch, params, nullptr, request_id, response);
      return;
    }
  } else if (const auto* push = std::get_if<CommitPushReq>(&request)) {
    ack = ValidatePush(*push);
    if (!ack) ack = ApplyPush(*push);
  } else if (const auto* fused = std::get_if<PushPullReq>(&request)) {
    ExecutePushPull(*fused, request_id, response);
    return;
  } else {
    // A response type arriving at the server is a confused peer; a
    // standalone slice is not a push (applying it would bypass the
    // watermark), and a standalone shard pull is not a batch.
    ack = Reject(kAckBadRequest, 0);
  }
  EncodeFrame(*ack, request_id, nullptr, response);
}

void RequestExecutor::ExecutePushPull(const PushPullReq& fused,
                                      std::uint64_t request_id,
                                      std::vector<std::uint8_t>& response) {
  // Both halves validate before either touches the store, so a bad frame
  // changes nothing. The push then applies (or, for a repeat, answers from
  // the cache) before the pull reads, so the snapshot includes it; a repeat
  // still gets a fresh pull.
  std::size_t params = 0;
  std::optional<AckResp> rejected = ValidatePush(fused.push);
  if (!rejected) rejected = ValidatePull(fused.pull, /*fused=*/true, params);
  if (rejected) {
    EncodeFrame(*rejected, request_id, nullptr, response);
    return;
  }
  const AckResp ack = ApplyPush(fused.push);
  ServePull(fused.pull, params, &ack, request_id, response);
}

AckResp RequestExecutor::Reject(std::uint32_t status, std::uint64_t value) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  return AckResp{status, value};
}

std::optional<AckResp> RequestExecutor::ValidatePull(
    const PullBatchReq& batch, bool fused, std::size_t& params) {
  // A shard this server does not own is a client routing bug, and the whole
  // batch is refused.
  params = 0;
  for (const PullBatchEntry& entry : batch.entries) {
    if (!ServesShard(entry.shard)) return Reject(kAckBadShard, entry.shard);
    params += store_->layout().length(entry.shard);
  }
  // A shard may repeat, so a short request can ask for an answer no frame
  // can hold. Refuse it before copying anything: the answer's writer would
  // throw on a server loop thread.
  if (PullAnswerPayloadBytes(batch.entries.size(), params, fused) >
      kMaxPayloadBytes) {
    return Reject(kAckBadRequest, 0);
  }
  return std::nullopt;
}

void RequestExecutor::ServePull(const PullBatchReq& batch, std::size_t params,
                                const AckResp* ack, std::uint64_t request_id,
                                std::vector<std::uint8_t>& response) {
  obs::ScopedTimer timer(pull_hist_);
  const ShardLayout& layout = store_->layout();
  PullAnswerWriter answer(response, request_id, batch.entries.size(), params,
                          ack);
  for (const PullBatchEntry& entry : batch.entries) {
    const std::uint32_t shard = entry.shard;
    const std::span<std::byte> dest =
        answer.BeginItem(shard, layout.offset(shard), layout.length(shard));
    // The shard version under the slice's lock, then the global version.
    const std::uint64_t shard_version = store_->PullShardSlice(shard, dest);
    answer.EndItem(shard_version, store_->version());
    pulls_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::optional<AckResp> RequestExecutor::ValidatePush(
    const CommitPushReq& batch) {
  // Sequence numbers start at 1, so 0 can never pass a watermark check.
  if (batch.push_seq == 0) return Reject(kAckBadRequest, 0);
  const ShardLayout& layout = store_->layout();
  for (const PushShardReq& slice : batch.slices) {
    if (!ServesShard(slice.shard)) return Reject(kAckBadShard, slice.shard);
    const std::size_t offset = layout.offset(slice.shard);
    const std::size_t length = layout.length(slice.shard);
    if (!slice.sparse) {
      if (slice.dense_offset != offset || slice.dense.size() != length) {
        return Reject(kAckBadRequest, slice.shard);
      }
      continue;
    }
    // Every entry must belong to the slice's shard: the store would skip
    // one that does not, and the push would be acked without it.
    const bool routed = std::ranges::all_of(
        slice.indices, [&](std::uint64_t index) {
          return index >= offset && index - offset < length;
        });
    // Rows apply whole (a decoded kind-3 slice's rows are consecutive by
    // construction), so the entries must split into them.
    if (!routed || slice.indices.size() != slice.values.size() ||
        slice.block_width == 0 ||
        slice.indices.size() % slice.block_width != 0) {
      return Reject(kAckBadRequest, slice.shard);
    }
  }
  return std::nullopt;
}

AckResp RequestExecutor::ApplyPush(const CommitPushReq& batch) {
  const PushWatermarks::Outcome outcome = watermarks_.ApplyOnce(
      batch.client_id, batch.push_seq, [&] {
        obs::ScopedTimer timer(push_hist_);
        for (const PushShardReq& slice : batch.slices) ApplySlice(slice);
        commits_.fetch_add(1, std::memory_order_relaxed);
        return AckResp{kAckOk, store_->CommitPush()};
      });
  if (outcome.duplicate) {
    duplicate_pushes_.fetch_add(1, std::memory_order_relaxed);
  }
  return outcome.ack;
}

void RequestExecutor::ApplySlice(const PushShardReq& slice) {
  pushes_.fetch_add(1, std::memory_order_relaxed);
  if (slice.sparse) {
    store_->PushShardSparse(slice.shard, slice.indices, slice.values,
                            slice.epoch, slice.block_width);
  } else {
    store_->PushShardDenseSlice(slice.shard, slice.dense, slice.epoch);
  }
}

ServerStats RequestExecutor::stats() const {
  ServerStats out;
  out.pulls = pulls_.load(std::memory_order_relaxed);
  out.pushes = pushes_.load(std::memory_order_relaxed);
  out.commits = commits_.load(std::memory_order_relaxed);
  out.duplicate_pushes = duplicate_pushes_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace specsync::net
