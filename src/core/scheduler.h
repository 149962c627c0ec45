// The centralized SpecSync scheduler (paper Sec. V, Algorithm 2).
//
// Engine-agnostic: the scheduler holds no timers and sends no messages. The
// driver (discrete-event simulator actor or threaded runtime node) feeds it
// notify/pull events with timestamps and asks it two questions:
//   HandleNotify  -> "schedule a speculation check this far in the future"
//   HandleCheckTimer -> "should this worker re-synchronize now?"
// so the identical protocol logic runs under virtual and real time.
//
// The scheduler also owns epoch bookkeeping: an epoch ends once every worker
// has pushed at least once since it began (paper Sec. II-B), at which point
// the SpeculationPolicy retunes ABORT_TIME / ABORT_RATE from the finished
// epoch's push history.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/adaptive_tuner.h"
#include "core/push_history.h"
#include "core/speculation.h"

namespace specsync {

namespace obs {
struct ObsContext;
class Counter;
}  // namespace obs

struct SchedulerConfig {
  std::size_t num_workers = 0;
  // Parameters in force before the first epoch finishes (no history yet).
  SpeculationParams initial_params;
  // EWMA smoothing for per-worker iteration-span estimates across epochs
  // (1.0 = use only the latest epoch's measurement).
  double span_ewma_alpha = 0.5;
  // Fallback iteration span until a worker has two pushes.
  Duration default_span = Duration::Seconds(1.0);
  // History retention multiple (in units of the longest span estimate).
  double history_horizon_spans = 50.0;
  // A check timer firing later than its armed deadline plus this slack is
  // counted as late. Both engines fire every check as of its deadline (a
  // runtime worker at its first poll point after it), so only a delayed
  // timer counts. The window is always clamped to the armed deadline.
  Duration late_check_slack = Duration::Milliseconds(10.0);
};

struct SchedulerStats {
  std::uint64_t notifies_received = 0;
  std::uint64_t checks_performed = 0;
  std::uint64_t resyncs_issued = 0;
  std::uint64_t stale_checks_skipped = 0;
  std::uint64_t retunes = 0;
  // Fault tolerance: notifies recognized as replayed/reordered and ignored.
  std::uint64_t duplicate_notifies = 0;
  // Check timers that fired past their armed deadline (plus slack).
  std::uint64_t late_checks = 0;
  // Epochs that could finish only because departed workers were excused.
  std::uint64_t lost_worker_epochs_unblocked = 0;
  std::uint64_t worker_departures = 0;
  std::uint64_t worker_rejoins = 0;
};

class SpecSyncScheduler {
 public:
  SpecSyncScheduler(SchedulerConfig config,
                    std::unique_ptr<SpeculationPolicy> policy);

  // A speculation check the driver must schedule `delay` after `now`.
  struct CheckRequest {
    std::uint64_t token = 0;
    Duration delay = Duration::Zero();
  };

  // Attaches observability instruments (src/obs): every HandleCheckTimer call
  // appends one structured record to the context's DecisionAuditLog (the
  // recorded ABORT_TIME is the armed window length, i.e. what the decision
  // actually used), epoch retunes append RetuneRecords plus an instant event
  // on SpanRecorder track `span_track`, and protocol counters mirror
  // SchedulerStats into the MetricsRegistry. Null detaches. Attach before
  // driving events; the scheduler only ever records — observability on or
  // off never changes a decision.
  void AttachObservability(obs::ObsContext* obs, std::uint32_t span_track = 0);

  // Worker finished an iteration and pushed (Algorithm 2 HandleNotification).
  // Returns a check request when speculation is currently enabled.
  std::optional<CheckRequest> HandleNotify(WorkerId worker,
                                           IterationId iteration, SimTime now);

  // Worker pulled fresh parameters at `now` (start of an iteration). The
  // tuner replays these pull times when estimating ũ_i(Δ).
  void HandlePull(WorkerId worker, SimTime now);

  // A previously requested check timer fired (Algorithm 2 CheckResync).
  // Returns true when the worker should abort and re-synchronize.
  // Token-idempotent: replaying a token (duplicated timer message) or firing
  // a superseded one is a counted no-op. A timer firing past its armed
  // deadline has its counting window clamped to the deadline, so a late
  // check never issues a re-sync for pushes outside its intended window.
  bool HandleCheckTimer(WorkerId worker, std::uint64_t token, SimTime now);

  // Worker departure/rejoin (crash injection, node loss). A departed worker
  // stops being required for epoch completion — the epoch it would otherwise
  // deadlock is finished on the spot if it was the last holdout — and its
  // pending speculation window is cancelled. A rejoining worker must push
  // again before the current epoch can end, and its span EWMA anchor is
  // reset so the dead period is not folded into the estimate.
  void OnWorkerDown(WorkerId worker, SimTime now);
  void OnWorkerUp(WorkerId worker, SimTime now);

  const SpeculationParams& params() const { return params_; }
  EpochId epoch() const { return epoch_; }
  const SchedulerStats& stats() const { return stats_; }
  const PushHistory& history() const { return history_; }
  std::size_t num_workers() const { return config_.num_workers; }
  // Per-worker smoothed iteration spans (tests / diagnostics).
  const std::vector<Duration>& iteration_spans() const { return spans_; }
  // Per-worker membership (false after OnWorkerDown until OnWorkerUp).
  const std::vector<bool>& active_workers() const { return active_; }

 private:
  void MaybeFinishEpoch(SimTime now);
  TuningInputs BuildTuningInputs(SimTime epoch_end) const;
  std::size_t ActiveWorkerCount() const;

  SchedulerConfig config_;
  std::unique_ptr<SpeculationPolicy> policy_;
  SpeculationParams params_;
  PushHistory history_;
  SchedulerStats stats_;

  EpochId epoch_ = 0;
  SimTime epoch_begin_ = SimTime::Zero();
  std::vector<std::uint64_t> pushes_this_epoch_;
  std::vector<Duration> spans_;          // smoothed T_i
  std::vector<SimTime> last_push_time_;  // per worker
  std::vector<bool> has_pushed_;         // per worker, ever
  std::vector<bool> active_;             // per worker, membership

  // Speculation-window state per worker.
  struct PendingCheck {
    std::uint64_t token = 0;
    SimTime window_begin;
    SimTime deadline;  // window_begin + abort_time at arm time
    bool active = false;
  };
  std::vector<PendingCheck> pending_;
  std::uint64_t next_token_ = 1;

  // Observability (null = off). Counters are resolved once at attach so the
  // per-event cost is one branch plus a relaxed atomic increment.
  obs::ObsContext* obs_ = nullptr;
  std::uint32_t obs_track_ = 0;
  obs::Counter* notify_counter_ = nullptr;
  obs::Counter* duplicate_counter_ = nullptr;
  obs::Counter* check_counter_ = nullptr;
  obs::Counter* stale_counter_ = nullptr;
  obs::Counter* resync_counter_ = nullptr;
  obs::Counter* retune_counter_ = nullptr;
};

// How a run speculates: not at all, with fixed (Cherrypick) parameters, or
// with the adaptive tuner (paper Sec. IV-B).
enum class SpeculationMode { kNone, kFixed, kAdaptive };

// The one place a speculation setting becomes a scheduler (null under
// kNone). kFixed runs `fixed_params` from the first iteration; kAdaptive
// tunes from the first finished epoch. `default_span` is the iteration span
// assumed before a worker has pushed twice.
std::unique_ptr<SpecSyncScheduler> MakeSpecSyncScheduler(
    std::size_t num_workers, SpeculationMode mode,
    const SpeculationParams& fixed_params,
    const AdaptiveTunerConfig& adaptive, Duration default_span);

}  // namespace specsync
