// One worker's iteration sequence (paper Sec. IV), written once for both
// engines: the simulator drives it from its events with one chunk, the
// runtime from its worker thread with compute_chunks (DESIGN.md §18).
//
// A WorkerStep owns its worker's attempt: the batch sampler, the snapshot,
// the batch, the gradient that ships and its push plan. Its calls come in one
// order: Pulled; ComputeChunk up to the last chunk, then EndCompute;
// PrepareCommit; Commit, then RecordPush. The first chunk opens a sum in
// gradient() (models/model.h), every chunk adds into it, and EndCompute
// closes it with weight 1 / compute_chunks: one emit per batch. An engine may
// transform gradient() before PrepareCommit (the simulator's codec). A batch
// is drawn at its first use and kept until its computation ends, so an
// aborted attempt leaves it to the restarted one, whose first chunk opens a
// fresh sum and discards the aborted one's rows.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "data/sharding.h"
#include "models/model.h"
#include "protocol/worker_protocol.h"

namespace specsync {

// One push: its routed slices and the write set the consistency layer
// learns at Commit. Reused, it allocates nothing.
struct PushPlan {
  std::vector<ShardRoute> routes;
  std::vector<std::size_t> write_set;
};

class WorkerStep {
 public:
  // `protocol`, `model` and `workspace` must outlive the step. The engine
  // lends `workspace`, the sum's row accumulator, and may lend one to steps
  // whose computations never interleave: the simulator lends all its steps
  // one, each runtime worker thread its own. By default a step sums on the
  // constructing thread's workspace, which plain gradient calls use too.
  WorkerStep(WorkerProtocol& protocol, const Model& model, WorkerId w,
             BatchSampler sampler, std::size_t compute_chunks,
             SumWorkspace& workspace = SumWorkspace::ThisThread());

  PullResult& snapshot() { return snapshot_; }  // a pull fills it in place
  Gradient& gradient() { return gradient_; }    // a push may take it, and
  PushPlan& plan() { return plan_; }            // the plan, by swap

  // The pull into snapshot() spanned [begin, end]; the attempt computes
  // from `end`. Returns the scheduler's pull notice.
  std::optional<ControlMessage> Pulled(SimTime begin, SimTime end);
  // Adds the next chunk into the batch's sum (chunk sizes differ by at most
  // one); true when it was the last.
  bool ComputeChunk();
  // The computation ended at `now`: releases the batch and closes the sum
  // into gradient().
  void EndCompute(SimTime now);
  // Routes gradient() if `route` or gated, then the write set.
  void PrepareCommit(bool route);
  // WorkerProtocol::Commit of this worker's push.
  std::optional<IterationId> Commit(SimTime now,
                                    std::span<const std::size_t> write_set,
                                    bool landed);
  // The push span of a landed commit at store `version`. Returns its missed
  // updates: pushes committed since the attempt's snapshot.
  std::uint64_t RecordPush(SimTime begin, SimTime end, IterationId iteration,
                           std::uint64_t version);

 private:
  WorkerProtocol& protocol_;
  const Model& model_;
  WorkerId w_;
  BatchSampler sampler_;
  PullResult snapshot_;
  std::vector<std::size_t> batch_;  // drawn at first use, cleared by EndCompute
  std::size_t chunks_;
  std::size_t next_chunk_ = 0;
  SumWorkspace& workspace_;
  Gradient gradient_;
  PushPlan plan_;
};

}  // namespace specsync
