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

WireMessage RequestExecutor::Execute(const WireMessage& request,
                                     const TraceContext* trace) {
  if (spans_ == nullptr || trace == nullptr || !trace->valid()) {
    return ExecuteInner(request);
  }
  // The serve span covers everything the client's RTT contains on this side:
  // the injected service delay, shard-lock wait inside the store, and the
  // store work itself. flow_in ties it under the client span whose trace_id
  // the frame carried.
  const std::uint64_t epoch = spans_->EnsureWallEpochNanos();
  const std::uint64_t begin_ns = obs::WallNanos();
  WireMessage response = ExecuteInner(request);
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
  return response;
}

WireMessage RequestExecutor::ExecuteInner(const WireMessage& request) {
  if (service_delay_.count() > 0) {
    std::this_thread::sleep_for(service_delay_);
  }
  if (const auto* batch = std::get_if<PullBatchReq>(&request)) {
    if (auto rejected = ValidatePull(*batch, /*fused=*/false)) {
      return *rejected;
    }
    return ServePull(*batch);
  }
  if (const auto* push = std::get_if<CommitPushReq>(&request)) {
    if (auto rejected = ValidatePush(*push)) return *rejected;
    return ApplyPush(*push);
  }
  if (const auto* fused = std::get_if<PushPullReq>(&request)) {
    return ExecutePushPull(*fused);
  }
  // A response type arriving at the server is a confused peer; a standalone
  // slice is not a push (applying it would bypass the watermark), and a
  // standalone shard pull is not a batch.
  return Reject(kAckBadRequest, 0);
}

WireMessage RequestExecutor::ExecutePushPull(const PushPullReq& fused) {
  // Both halves validate before either touches the store, so a bad frame
  // changes nothing. The push then applies (or, for a repeat, answers from
  // the cache) before the pull reads, so the snapshot includes it; a repeat
  // still gets a fresh pull.
  if (auto rejected = ValidatePush(fused.push)) return *rejected;
  if (auto rejected = ValidatePull(fused.pull, /*fused=*/true)) {
    return *rejected;
  }
  PushPullResp resp;
  resp.ack = ApplyPush(fused.push);
  resp.pull = ServePull(fused.pull);
  return resp;
}

AckResp RequestExecutor::Reject(std::uint32_t status, std::uint64_t value) {
  rejected_.fetch_add(1, std::memory_order_relaxed);
  return AckResp{status, value};
}

std::optional<AckResp> RequestExecutor::ValidatePull(
    const PullBatchReq& batch, bool fused) {
  // A shard this server does not own is a client routing bug, and the whole
  // batch is refused.
  std::size_t params = 0;
  for (const PullBatchEntry& entry : batch.entries) {
    if (!ServesShard(entry.shard)) return Reject(kAckBadShard, entry.shard);
    params += store_->layout().length(entry.shard);
  }
  // A shard may repeat, so a short request can ask for an answer no frame
  // can hold. Refuse it before copying anything: EncodeFrame would throw on
  // the loop thread.
  if (PullAnswerPayloadBytes(batch.entries.size(), params, fused) >
      kMaxPayloadBytes) {
    return Reject(kAckBadRequest, 0);
  }
  return std::nullopt;
}

PullBatchResp RequestExecutor::ServePull(const PullBatchReq& batch) {
  obs::ScopedTimer timer(pull_hist_);
  PullBatchResp resp;
  resp.items.reserve(batch.entries.size());
  for (const PullBatchEntry& entry : batch.entries) {
    resp.items.push_back(PullItem(entry.shard));
  }
  return resp;
}

PullShardResp RequestExecutor::PullItem(std::uint32_t shard) {
  PullShardResp item;
  item.shard = shard;
  item.offset = store_->layout().offset(shard);
  item.params.resize(store_->layout().length(shard));
  // The shard version under the slice's lock, then the global version.
  item.shard_version = store_->PullShardSlice(shard, item.params);
  item.global_version = store_->version();
  pulls_.fetch_add(1, std::memory_order_relaxed);
  return item;
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
    if (!routed || slice.indices.size() != slice.values.size()) {
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
                            slice.epoch);
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
