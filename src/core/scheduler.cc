#include "core/scheduler.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/logging.h"
#include "obs/obs.h"

namespace specsync {

SpecSyncScheduler::SpecSyncScheduler(SchedulerConfig config,
                                     std::unique_ptr<SpeculationPolicy> policy)
    : config_(std::move(config)),
      policy_(std::move(policy)),
      params_(config_.initial_params),
      history_(config_.num_workers),
      pushes_this_epoch_(config_.num_workers, 0),
      spans_(config_.num_workers, config_.default_span),
      last_push_time_(config_.num_workers, SimTime::Zero()),
      has_pushed_(config_.num_workers, false),
      active_(config_.num_workers, true),
      pending_(config_.num_workers) {
  SPECSYNC_CHECK_GT(config_.num_workers, 0u);
  SPECSYNC_CHECK(policy_ != nullptr);
  SPECSYNC_CHECK(config_.span_ewma_alpha > 0.0 &&
                 config_.span_ewma_alpha <= 1.0);
  SPECSYNC_CHECK_GT(config_.default_span.seconds(), 0.0);
  SPECSYNC_CHECK_GE(config_.late_check_slack.seconds(), 0.0);
}

void SpecSyncScheduler::AttachObservability(obs::ObsContext* obs,
                                            std::uint32_t span_track) {
  obs_ = obs;
  obs_track_ = span_track;
  if (obs_ == nullptr) {
    notify_counter_ = duplicate_counter_ = check_counter_ = stale_counter_ =
        resync_counter_ = retune_counter_ = nullptr;
    return;
  }
  notify_counter_ = &obs_->metrics.counter("scheduler.notifies");
  duplicate_counter_ = &obs_->metrics.counter("scheduler.duplicate_notifies");
  check_counter_ = &obs_->metrics.counter("scheduler.checks");
  stale_counter_ = &obs_->metrics.counter("scheduler.stale_checks");
  resync_counter_ = &obs_->metrics.counter("scheduler.resyncs");
  retune_counter_ = &obs_->metrics.counter("scheduler.retunes");
}

std::optional<SpecSyncScheduler::CheckRequest> SpecSyncScheduler::HandleNotify(
    WorkerId worker, IterationId iteration, SimTime now) {
  SPECSYNC_CHECK_LT(worker, config_.num_workers);
  ++stats_.notifies_received;
  if (notify_counter_ != nullptr) notify_counter_->Increment();

  // Faulty links may replay or reorder notifies. Each worker's iterations
  // are monotone, so anything at or below its highest recorded iteration is
  // a duplicate: ignore it without touching the ledger, the span estimate,
  // or the pending speculation window.
  const std::optional<IterationId> last = history_.LastIteration(worker);
  if (last.has_value() && iteration <= *last) {
    ++stats_.duplicate_notifies;
    if (duplicate_counter_ != nullptr) duplicate_counter_->Increment();
    return std::nullopt;
  }
  history_.RecordPush(worker, iteration, now);

  // Update the iteration-span estimate from the gap between this worker's
  // consecutive pushes.
  if (has_pushed_[worker]) {
    const Duration gap = now - last_push_time_[worker];
    if (gap > Duration::Zero()) {
      const double alpha = config_.span_ewma_alpha;
      spans_[worker] = spans_[worker] * (1.0 - alpha) + gap * alpha;
    }
  }
  has_pushed_[worker] = true;
  last_push_time_[worker] = now;
  ++pushes_this_epoch_[worker];

  MaybeFinishEpoch(now);

  if (!params_.enabled() || !active_[worker]) {
    pending_[worker].active = false;
    return std::nullopt;
  }
  // Kick off the speculation window for this worker's *next* iteration
  // (which it starts immediately after this push, per ASP).
  PendingCheck& check = pending_[worker];
  check.token = next_token_++;
  check.window_begin = now;
  check.deadline = now + params_.abort_time;
  check.active = true;
  return CheckRequest{check.token, params_.abort_time};
}

void SpecSyncScheduler::HandlePull(WorkerId worker, SimTime now) {
  SPECSYNC_CHECK_LT(worker, config_.num_workers);
  history_.RecordPull(worker, now);
}

bool SpecSyncScheduler::HandleCheckTimer(WorkerId worker, std::uint64_t token,
                                         SimTime now) {
  SPECSYNC_CHECK_LT(worker, config_.num_workers);
  PendingCheck& check = pending_[worker];
  if (!check.active || check.token != token) {
    // The worker has since pushed again (window superseded) or speculation
    // was disabled — "too late" (Sec. IV-A).
    ++stats_.stale_checks_skipped;
    if (obs_ != nullptr) {
      stale_counter_->Increment();
      obs::CheckRecord rec;
      rec.worker = worker;
      rec.token = token;
      rec.fired_at = now;
      rec.outcome = obs::CheckOutcome::kStale;
      obs_->audit.RecordCheck(rec);
    }
    return false;
  }
  check.active = false;
  ++stats_.checks_performed;

  // Count pushes from others within the speculation window (Algorithm 2,
  // CheckResync). Under exact timers `now` equals the armed deadline; a
  // delayed timer (jittery wall clock, fault-injected control link) is
  // clamped back to the deadline so pushes landing after the intended
  // window can never trigger a re-sync for a stale window.
  bool late = false;
  SimTime window_end = now;
  if (now > check.deadline) {
    window_end = check.deadline;
    if (now - check.deadline > config_.late_check_slack) {
      ++stats_.late_checks;
      late = true;
    }
  }
  const std::size_t active_workers = ActiveWorkerCount();
  const double abort_rate = params_.RateFor(worker);
  const std::size_t count =
      history_.CountPushesInWindow(check.window_begin, window_end, worker);
  const double threshold = static_cast<double>(active_workers) * abort_rate;
  const bool resync = static_cast<double>(count) >= threshold;
  if (resync) ++stats_.resyncs_issued;

  if (obs_ != nullptr) {
    check_counter_->Increment();
    if (resync) resync_counter_->Increment();
    obs::CheckRecord rec;
    rec.worker = worker;
    rec.token = token;
    rec.fired_at = now;
    rec.outcome =
        resync ? obs::CheckOutcome::kResync : obs::CheckOutcome::kKeep;
    rec.window_begin = check.window_begin;
    rec.window_end = window_end;
    rec.armed_deadline = check.deadline;
    rec.pushes_seen = count;
    rec.abort_time = check.deadline - check.window_begin;
    rec.abort_rate = abort_rate;
    rec.threshold = threshold;
    rec.active_workers = active_workers;
    rec.late = late;
    obs_->audit.RecordCheck(rec);
    if (resync) {
      obs_->spans.AddInstant(
          "resync_decision", "scheduler", obs_track_, now,
          {{"worker", std::to_string(worker)},
           {"pushes_seen", std::to_string(count)},
           {"threshold", std::to_string(threshold)}});
    }
  }
  return resync;
}

void SpecSyncScheduler::OnWorkerDown(WorkerId worker, SimTime now) {
  SPECSYNC_CHECK_LT(worker, config_.num_workers);
  if (!active_[worker]) return;
  active_[worker] = false;
  pending_[worker].active = false;
  ++stats_.worker_departures;
  // If this worker was the last epoch holdout, finish the epoch now instead
  // of deadlocking on a push that will never come.
  MaybeFinishEpoch(now);
}

void SpecSyncScheduler::OnWorkerUp(WorkerId worker, SimTime now) {
  SPECSYNC_CHECK_LT(worker, config_.num_workers);
  (void)now;
  if (active_[worker]) return;
  active_[worker] = true;
  ++stats_.worker_rejoins;
  // Reset the span anchor: the next push gap would otherwise fold the whole
  // dead period into the EWMA.
  has_pushed_[worker] = false;
}

std::size_t SpecSyncScheduler::ActiveWorkerCount() const {
  return static_cast<std::size_t>(
      std::count(active_.begin(), active_.end(), true));
}

void SpecSyncScheduler::MaybeFinishEpoch(SimTime now) {
  // An epoch ends once every *active* worker has pushed since it began.
  // Departed workers that never pushed this epoch are excused; departed
  // workers that did push still contribute their update.
  bool any_active = false;
  bool all_pushed = true;
  bool excused = false;
  for (WorkerId w = 0; w < config_.num_workers; ++w) {
    if (active_[w]) {
      any_active = true;
      if (pushes_this_epoch_[w] == 0) all_pushed = false;
    } else if (pushes_this_epoch_[w] == 0) {
      excused = true;
    }
  }
  if (!any_active || !all_pushed) return;
  if (excused) ++stats_.lost_worker_epochs_unblocked;

  TuningInputs inputs = BuildTuningInputs(now);
  params_ = policy_->OnEpochEnd(inputs);
  ++stats_.retunes;
  SPECSYNC_LOG(kDebug) << "epoch " << epoch_ << " finished at " << now
                       << "; retuned abort_time=" << params_.abort_time
                       << " abort_rate=" << params_.abort_rate;
  if (obs_ != nullptr) {
    retune_counter_->Increment();
    obs::RetuneRecord rec;
    rec.epoch = epoch_;
    rec.at = now;
    rec.abort_time = params_.abort_time;
    rec.abort_rate = params_.abort_rate;
    rec.epoch_pushes = inputs.pushes.size();
    obs_->audit.RecordRetune(rec);
    obs_->spans.AddInstant(
        "retune", "scheduler", obs_track_, now,
        {{"epoch", std::to_string(epoch_)},
         {"abort_time_s", std::to_string(params_.abort_time.seconds())},
         {"abort_rate", std::to_string(params_.abort_rate)}});
  }

  ++epoch_;
  epoch_begin_ = now;
  std::fill(pushes_this_epoch_.begin(), pushes_this_epoch_.end(), 0u);

  // Bound ledger growth: keep a generous multiple of the slowest worker.
  const Duration max_span =
      *std::max_element(spans_.begin(), spans_.end());
  history_.Trim(now, max_span * config_.history_horizon_spans);
}

TuningInputs SpecSyncScheduler::BuildTuningInputs(SimTime epoch_end) const {
  TuningInputs inputs;
  inputs.num_workers = config_.num_workers;
  inputs.finished_epoch = epoch_;
  inputs.epoch_begin = epoch_begin_;
  inputs.epoch_end = epoch_end;
  for (const PushRecord& rec :
       history_.PushesInWindow(epoch_begin_, epoch_end)) {
    inputs.pushes.emplace_back(rec.time, rec.worker);
  }
  inputs.last_pull.resize(config_.num_workers);
  for (WorkerId w = 0; w < config_.num_workers; ++w) {
    inputs.last_pull[w] = history_.LastPullBefore(w, epoch_end);
  }
  inputs.iteration_span = spans_;
  return inputs;
}

std::unique_ptr<SpecSyncScheduler> MakeSpecSyncScheduler(
    std::size_t num_workers, SpeculationMode mode,
    const SpeculationParams& fixed_params,
    const AdaptiveTunerConfig& adaptive, Duration default_span) {
  if (mode == SpeculationMode::kNone) return nullptr;
  SchedulerConfig config;
  config.num_workers = num_workers;
  config.default_span = default_span;
  std::unique_ptr<SpeculationPolicy> policy;
  if (mode == SpeculationMode::kFixed) {
    config.initial_params = fixed_params;
    policy = std::make_unique<FixedSpeculationPolicy>(fixed_params);
  } else {
    policy = std::make_unique<AdaptiveTuner>(adaptive);
  }
  return std::make_unique<SpecSyncScheduler>(std::move(config),
                                             std::move(policy));
}

}  // namespace specsync
