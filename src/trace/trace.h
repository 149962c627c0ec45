// Training traces.
//
// Every experiment records what happened and when: pulls, pushes, aborts,
// and periodic loss evaluations. The figure regenerators are pure functions
// of these traces (plus the transfer ledger), mirroring how the paper's plots
// were produced from collected workload traces (Sec. III-A).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/ids.h"
#include "common/sim_time.h"

namespace specsync {

struct PullEvent {
  SimTime time;
  WorkerId worker = kInvalidWorker;
  std::uint64_t version = 0;  // store version of the snapshot
};

struct PushEvent {
  SimTime time;
  WorkerId worker = kInvalidWorker;
  IterationId iteration = 0;
  std::uint64_t version = 0;        // store version after this push
  std::uint64_t missed_updates = 0; // pushes between this worker's pull & push
};

struct AbortEvent {
  SimTime time;
  WorkerId worker = kInvalidWorker;
  Duration wasted_compute = Duration::Zero();
};

struct LossSample {
  SimTime time;
  double loss = 0.0;
  std::uint64_t total_iterations = 0;  // pushes applied so far, cluster-wide
  EpochId epoch = 0;
};

class TrainingTrace {
 public:
  explicit TrainingTrace(std::size_t num_workers);

  void RecordPull(WorkerId worker, SimTime time, std::uint64_t version);
  void RecordPush(WorkerId worker, SimTime time, IterationId iteration,
                  std::uint64_t version, std::uint64_t missed_updates);
  void RecordAbort(WorkerId worker, SimTime time, Duration wasted_compute);
  void RecordLoss(SimTime time, double loss, std::uint64_t total_iterations,
                  EpochId epoch);

  std::size_t num_workers() const { return num_workers_; }
  std::span<const PullEvent> pulls() const { return pulls_; }
  std::span<const PushEvent> pushes() const { return pushes_; }
  std::span<const AbortEvent> aborts() const { return aborts_; }
  std::span<const LossSample> losses() const { return losses_; }

  // Pull times of one worker, in order.
  std::vector<SimTime> PullTimes(WorkerId worker) const;
  // Push times of one worker, in order.
  std::vector<SimTime> PushTimes(WorkerId worker) const;

  std::uint64_t total_pushes() const { return pushes_.size(); }
  std::uint64_t total_aborts() const { return aborts_.size(); }
  Duration total_wasted_compute() const;

  // End time of the trace (max event time seen).
  SimTime end_time() const { return end_time_; }

 private:
  std::size_t num_workers_;
  std::vector<PullEvent> pulls_;
  std::vector<PushEvent> pushes_;
  std::vector<AbortEvent> aborts_;
  std::vector<LossSample> losses_;
  SimTime end_time_ = SimTime::Zero();
};

// Order-sensitive FNV-1a digest over the full event streams (pulls, pushes,
// aborts, losses) with bit-exact times and payloads: two traces digest equal
// iff they recorded identical histories. Pinned by the golden-trace test and
// compared across thread counts by the parallel-equivalence test.
std::uint64_t TraceDigest(const TrainingTrace& trace);

// Convergence (paper Sec. VI-B): the first sample of the first run of
// `patience` consecutive samples with loss below `target`; null when no run
// completes.
const LossSample* ConvergenceSample(std::span<const LossSample> losses,
                                    double target, std::size_t patience = 5);
// The time of the trace's ConvergenceSample.
std::optional<SimTime> TimeToTarget(const TrainingTrace& trace, double target,
                                    std::size_t patience = 5);

}  // namespace specsync
