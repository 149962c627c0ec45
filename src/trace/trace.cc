#include "trace/trace.h"

#include <algorithm>

#include "common/check.h"
#include "common/hash.h"

namespace specsync {

TrainingTrace::TrainingTrace(std::size_t num_workers)
    : num_workers_(num_workers) {
  SPECSYNC_CHECK_GT(num_workers, 0u);
}

void TrainingTrace::RecordPull(WorkerId worker, SimTime time,
                               std::uint64_t version) {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  pulls_.push_back(PullEvent{time, worker, version});
  end_time_ = std::max(end_time_, time);
}

void TrainingTrace::RecordPush(WorkerId worker, SimTime time,
                               IterationId iteration, std::uint64_t version,
                               std::uint64_t missed_updates) {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  pushes_.push_back(PushEvent{time, worker, iteration, version, missed_updates});
  end_time_ = std::max(end_time_, time);
}

void TrainingTrace::RecordAbort(WorkerId worker, SimTime time,
                                Duration wasted_compute) {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  aborts_.push_back(AbortEvent{time, worker, wasted_compute});
  end_time_ = std::max(end_time_, time);
}

void TrainingTrace::RecordLoss(SimTime time, double loss,
                               std::uint64_t total_iterations, EpochId epoch) {
  losses_.push_back(LossSample{time, loss, total_iterations, epoch});
  end_time_ = std::max(end_time_, time);
}

std::vector<SimTime> TrainingTrace::PullTimes(WorkerId worker) const {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  std::vector<SimTime> out;
  for (const PullEvent& e : pulls_) {
    if (e.worker == worker) out.push_back(e.time);
  }
  return out;
}

std::vector<SimTime> TrainingTrace::PushTimes(WorkerId worker) const {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  std::vector<SimTime> out;
  for (const PushEvent& e : pushes_) {
    if (e.worker == worker) out.push_back(e.time);
  }
  return out;
}

Duration TrainingTrace::total_wasted_compute() const {
  Duration total = Duration::Zero();
  for (const AbortEvent& e : aborts_) total += e.wasted_compute;
  return total;
}

std::uint64_t TraceDigest(const TrainingTrace& trace) {
  Fnv1a hash;
  hash.U64(trace.num_workers());
  hash.U64(trace.pulls().size());
  for (const PullEvent& e : trace.pulls()) {
    hash.F64(e.time.seconds()).U64(e.worker).U64(e.version);
  }
  hash.U64(trace.pushes().size());
  for (const PushEvent& e : trace.pushes()) {
    hash.F64(e.time.seconds())
        .U64(e.worker)
        .U64(e.iteration)
        .U64(e.version)
        .U64(e.missed_updates);
  }
  hash.U64(trace.aborts().size());
  for (const AbortEvent& e : trace.aborts()) {
    hash.F64(e.time.seconds()).U64(e.worker).F64(e.wasted_compute.seconds());
  }
  hash.U64(trace.losses().size());
  for (const LossSample& s : trace.losses()) {
    hash.F64(s.time.seconds()).F64(s.loss).U64(s.total_iterations).U64(s.epoch);
  }
  return hash.digest();
}

const LossSample* ConvergenceSample(std::span<const LossSample> losses,
                                    double target, std::size_t patience) {
  SPECSYNC_CHECK_GT(patience, 0u);
  std::size_t streak = 0;
  for (std::size_t i = 0; i < losses.size(); ++i) {
    streak = losses[i].loss < target ? streak + 1 : 0;
    if (streak == patience) return &losses[i + 1 - patience];
  }
  return nullptr;
}

std::optional<SimTime> TimeToTarget(const TrainingTrace& trace, double target,
                                    std::size_t patience) {
  const LossSample* sample =
      ConvergenceSample(trace.losses(), target, patience);
  if (sample == nullptr) return std::nullopt;
  return sample->time;
}

}  // namespace specsync
