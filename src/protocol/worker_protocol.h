// The SpecSync worker protocol (paper Sec. IV), written once for both engines.
//
// A worker loops gate -> pull -> compute -> commit, and a re-sync from the
// scheduler aborts an iteration still computing on stale parameters.
// WorkerProtocol holds each worker's state and makes every decision of that
// loop, with its accounting and obs records: the gate, commits, re-syncs,
// crash and rejoin, and the scheduler side. Each worker's WorkerStep
// (protocol/worker_step.h) makes the attempt's own calls in their one order.
// The executors (the DES in src/sim, the threads in src/runtime) decide only
// when a step runs and how its bytes move. Messages for the scheduler come
// back as ControlMessages; the executor carries them and hands them to
// Deliver.
//
// Threading: the DES calls everything from one event loop. In the runtime,
// worker w's thread runs w's step, w's re-syncs and w's scheduler calls
// (Deliver and ReSyncDue, under one mutex), and Finish runs after every
// thread joined. The fields other threads read (completed, liveness) are
// atomics; the consistency controller sits behind its lock.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "core/naive_waiting.h"
#include "core/scheduler.h"
#include "core/speculation.h"
#include "fault/fault_plan.h"
#include "models/model.h"
#include "optim/lr_schedule.h"
#include "ps/consistency.h"
#include "ps/param_store.h"

namespace specsync {

namespace obs {
struct ObsContext;
class Counter;
}  // namespace obs

// Full synchronization-scheme selection: a base consistency model
// (ps/consistency.h), optional naive waiting, and optional speculative
// synchronization on top (the paper's Original = kAsp + kNone;
// SpecSync-Adaptive = kAsp + kAdaptive; etc.).
struct SchemeSpec {
  ConsistencySpec consistency;
  NaiveWaitingConfig naive;
  SpeculationMode speculation = SpeculationMode::kNone;
  // Used directly under kFixed (the Cherrypick values).
  SpeculationParams fixed_params;
  AdaptiveTunerConfig adaptive;

  std::string DisplayName() const;

  static SchemeSpec Original() { return {}; }
  static SchemeSpec Bsp() {
    SchemeSpec s;
    s.consistency.scheme = ConsistencyScheme::kBsp;
    return s;
  }
  static SchemeSpec Ssp(std::uint64_t staleness) {
    SchemeSpec s;
    s.consistency.scheme = ConsistencyScheme::kSsp;
    s.consistency.staleness = staleness;
    return s;
  }
  static SchemeSpec PerShardSsp(std::uint64_t staleness) {
    SchemeSpec s;
    s.consistency.scheme = ConsistencyScheme::kPssp;
    s.consistency.staleness = staleness;
    return s;
  }
  static SchemeSpec DynamicSsp(DynamicSspConfig config = {}) {
    SchemeSpec s;
    s.consistency.scheme = ConsistencyScheme::kDssp;
    s.consistency.dssp = config;
    return s;
  }
  static SchemeSpec NaiveWaiting(Duration delay) {
    SchemeSpec s;
    s.naive.delay = delay;
    return s;
  }
  static SchemeSpec Cherrypick(SpeculationParams params) {
    SchemeSpec s;
    s.speculation = SpeculationMode::kFixed;
    s.fixed_params = std::move(params);
    return s;
  }
  static SchemeSpec Adaptive(AdaptiveTunerConfig config = {}) {
    SchemeSpec s;
    s.speculation = SpeculationMode::kAdaptive;
    s.adaptive = config;
    return s;
  }
};

// What the consistency layer did to the run: how often workers were gated
// at iteration start, the time they spent gated (the straggler stall-time
// the dynamic bound is tuned to shrink), and the dynamic controller's retune
// activity. All zeros under ASP.
struct ConsistencyStats {
  std::uint64_t blocks = 0;       // gate transitions allowed -> blocked
  double blocked_seconds = 0.0;   // total time workers spent gated
  std::uint64_t retunes = 0;      // staleness-bound adjustments (kDssp)
  std::uint64_t final_staleness = 0;  // bound in force at run end (SSP family)
};

// A worker's message to the scheduler.
struct ControlMessage {
  enum class Kind : std::uint8_t { kPull, kNotify, kWorkerDown, kWorkerUp };
  Kind kind = Kind::kPull;
  WorkerId worker = 0;
  IterationId iteration = 0;  // kNotify: the iteration just pushed
};

struct WorkerProtocolConfig {
  std::size_t num_workers = 0;
  std::size_t num_servers = 1;
  double sgd_clip = 0.0;  // applied by the store (0 = off)
  SchemeSpec scheme;      // naive waiting is the executor's (it delays pulls)
  // The iteration span the scheduler assumes before a worker pushed twice.
  Duration default_span = Duration::Seconds(1.0);
  // Optional, not owned. Counters and gauges are named "<metric_prefix>.*".
  obs::ObsContext* obs = nullptr;
  std::string metric_prefix;
};

class WorkerProtocol {
 public:
  // Builds the store (initialized from `init_rng`), the controller and the
  // scheduler. `faults` is the executor's plan, which must outlive the
  // protocol: its events must name existing workers, and crashes and
  // rejoins are counted on it.
  WorkerProtocol(const std::shared_ptr<const Model>& model,
                 const std::shared_ptr<const LearningRateSchedule>& schedule,
                 WorkerProtocolConfig config, FaultPlan& faults,
                 Rng init_rng);

  ParameterServer& store() { return *store_; }
  // Null when speculation is off.
  const SpecSyncScheduler* scheduler() const { return scheduler_.get(); }
  // Null under ASP (no gate). Read it only while no worker thread runs.
  const PerShardSspController* controller() const { return controller_.get(); }
  bool gated() const { return controller_ != nullptr; }

  IterationId completed(WorkerId w) const {
    return slots_[w].completed.load(std::memory_order_relaxed);
  }
  bool live(WorkerId w) const {
    return slots_[w].live.load(std::memory_order_relaxed);
  }
  // Refused at the gate and still waiting.
  bool blocked(WorkerId w) const { return slots_[w].blocked; }
  std::uint64_t aborts() const {
    return aborts_.load(std::memory_order_relaxed);
  }

  // Completed iterations of the slowest *live* worker, the learning-rate
  // schedule's epoch (paper Sec. II-B): a crashed worker must not pin it.
  // With every worker down, the overall minimum.
  EpochId GlobalEpoch() const;

  // --- worker side -----------------------------------------------------------

  // May worker w start its next iteration at `now`? Never blocks; a dead
  // worker is refused. A refusal opens a blocked interval, counted as one
  // block however often it is re-asked; an admission closes it, adding its
  // length to the blocked time and emitting the "gated" span.
  bool Admit(WorkerId w, SimTime now);
  // Threads, after a refusal: sleeps until worker w may start, or returns
  // false once `deadline` passes. Admit again to enter.
  bool AwaitAdmission(WorkerId w,
                      std::chrono::steady_clock::time_point deadline);

  // A re-sync for the notify of `notified_iteration` reached worker w at
  // `now`, and the paper's rule (Sec. IV-A) applies at once: abort iff the
  // worker is computing iteration n + 1 and has not aborted it yet, so
  // duplicated or late re-syncs abort an iteration at most once. Returns the
  // wasted compute time of an abort; the worker then re-pulls.
  std::optional<Duration> ReSync(WorkerId w, IterationId notified_iteration,
                                 SimTime now);

  // Worker w's push resolved: the controller learns `write_set`, completed
  // advances, blocked peers re-check. A push with every slice lost
  // (`landed` false) still commits for a live worker and commits nothing
  // for a crashed one; a landed push of a crashed worker commits, but the
  // worker neither notifies nor restarts. Returns the committed iteration.
  std::optional<IterationId> Commit(WorkerId w, SimTime now,
                                    std::span<const std::size_t> write_set,
                                    bool landed);
  // The notify for `iteration`, if speculation is on and the worker lives.
  std::optional<ControlMessage> Notify(WorkerId w, IterationId iteration,
                                       SimTime now);

  // A crash closes the worker's blocked interval, stops its computation and
  // excuses it from the bound; a rejoin re-admits it at its old progress.
  // Both count on the fault plan and return the scheduler's notice.
  std::optional<ControlMessage> Crash(WorkerId w, SimTime now);
  std::optional<ControlMessage> Rejoin(WorkerId w);

  // --- scheduler side --------------------------------------------------------

  // Applies a delivered message; a notify may return a check to arm.
  std::optional<SpecSyncScheduler::CheckRequest> Deliver(
      const ControlMessage& message, SimTime now);
  // An armed check fired: true when worker w must re-sync.
  bool ReSyncDue(WorkerId w, std::uint64_t token, SimTime now);

  // --- end of run ------------------------------------------------------------

  // Closes the intervals still open at `now`; the consistency totals.
  ConsistencyStats Finish(SimTime now);
  void PublishGauges(const ConsistencyStats& stats,
                     std::uint64_t total_pushes, double final_loss) const;

 private:
  friend class WorkerStep;  // the worker-side calls of an attempt

  struct Slot {
    std::atomic<IterationId> completed{0};
    std::atomic<bool> live{true};
    std::optional<IterationId> last_abort;
    bool computing = false;
    SimTime compute_start;
    bool blocked = false;
    SimTime blocked_since;
  };

  void CloseBlocked(WorkerId w, SimTime now);
  // Runs `change` on the controller under the gate's lock, then wakes every
  // blocked thread: progress and membership changes are the only events
  // that can turn a refusal into an admission.
  template <typename Change>
  void ChangeGate(Change change);

  std::vector<Slot> slots_;
  FaultPlan& faults_;
  std::unique_ptr<ParameterServer> store_;
  // The gate. Liveness: the least-progressed live writer of a shard always
  // passes, so with departed workers excused some thread can always run.
  std::unique_ptr<PerShardSspController> controller_;
  const DynamicSspController* dssp_ = nullptr;
  mutable std::mutex gate_mutex_;
  std::condition_variable admitted_;
  std::unique_ptr<SpecSyncScheduler> scheduler_;

  std::atomic<std::uint64_t> blocks_{0};
  std::atomic<double> blocked_seconds_{0.0};
  std::atomic<std::uint64_t> aborts_{0};

  obs::ObsContext* obs_ = nullptr;  // null = off; records only
  std::string metric_prefix_;
  obs::Counter* pull_counter_ = nullptr;
  obs::Counter* push_counter_ = nullptr;
  obs::Counter* abort_counter_ = nullptr;
};

}  // namespace specsync
