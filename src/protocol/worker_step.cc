#include "protocol/worker_step.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "obs/obs.h"

namespace specsync {

WorkerStep::WorkerStep(WorkerProtocol& protocol, const Model& model,
                       WorkerId w, BatchSampler sampler,
                       std::size_t compute_chunks, SumWorkspace& workspace)
    : protocol_(protocol),
      model_(model),
      w_(w),
      sampler_(std::move(sampler)),
      chunks_(compute_chunks),
      workspace_(workspace) {
  SPECSYNC_CHECK_GT(compute_chunks, 0u);
  SPECSYNC_CHECK_LE(compute_chunks, sampler_.batch_size());
  plan_.write_set.reserve(protocol.store().num_shards());  // may touch all
}

std::optional<ControlMessage> WorkerStep::Pulled(SimTime begin, SimTime end) {
  protocol_.slots_[w_].computing = true;
  protocol_.slots_[w_].compute_start = end;
  next_chunk_ = 0;
  if (protocol_.obs_ != nullptr) {
    protocol_.pull_counter_->Increment();
    protocol_.obs_->spans.AddSpan(
        "pull", "pull", w_, begin, end,
        {{"version", std::to_string(snapshot_.version)}});
  }
  if (protocol_.scheduler() == nullptr) return std::nullopt;
  return ControlMessage{ControlMessage::Kind::kPull, w_};
}

bool WorkerStep::ComputeChunk() {
  SPECSYNC_CHECK_LT(next_chunk_, chunks_);
  if (batch_.empty()) sampler_.NextBatch(batch_);
  // The first batch_size % chunks chunks are one example longer.
  const std::size_t c = next_chunk_++;
  const std::size_t size = batch_.size() / chunks_;
  const std::size_t longer = batch_.size() % chunks_;
  const auto chunk = std::span<const std::size_t>(batch_).subspan(
      c * size + std::min(c, longer), size + (c < longer ? 1 : 0));
  if (c == 0) gradient_.OpenSum(workspace_);
  model_.LossAndGradient(snapshot_.params, chunk, gradient_);
  return next_chunk_ == chunks_;
}

void WorkerStep::EndCompute(SimTime now) {
  protocol_.slots_[w_].computing = false;
  if (protocol_.obs_ != nullptr) {
    protocol_.obs_->spans.AddSpan(
        "compute", "compute", w_, protocol_.slots_[w_].compute_start, now,
        {{"iteration", std::to_string(protocol_.completed(w_))}});
  }
  batch_.clear();
  if (gradient_.sum_open()) {
    gradient_.CloseSum(1.0 / static_cast<double>(chunks_));
  }
}

void WorkerStep::PrepareCommit(bool route) {
  plan_.routes.clear();
  plan_.write_set.clear();
  if (!route && !protocol_.gated()) return;
  protocol_.store().layout().RouteInto(gradient_, plan_.routes);
  if (!protocol_.gated()) return;
  for (const ShardRoute& r : plan_.routes) plan_.write_set.push_back(r.shard);
}

std::optional<IterationId> WorkerStep::Commit(
    SimTime now, std::span<const std::size_t> write_set, bool landed) {
  return protocol_.Commit(w_, now, write_set, landed);
}

std::uint64_t WorkerStep::RecordPush(SimTime begin, SimTime end,
                                     IterationId iteration,
                                     std::uint64_t version) {
  const std::uint64_t missed = version - 1 - snapshot_.version;
  if (protocol_.obs_ != nullptr) {
    protocol_.push_counter_->Increment();
    protocol_.obs_->spans.AddSpan(
        "push", "push", w_, begin, end,
        {{"iteration", std::to_string(iteration)},
         {"version", std::to_string(version)},
         {"missed_updates", std::to_string(missed)}});
  }
  return missed;
}

}  // namespace specsync
