#include "protocol/worker_protocol.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "obs/obs.h"

namespace specsync {

std::string SchemeSpec::DisplayName() const {
  std::ostringstream out;
  switch (consistency.scheme) {
    case ConsistencyScheme::kAsp:
      out << "ASP";
      break;
    case ConsistencyScheme::kBsp:
      out << "BSP";
      break;
    case ConsistencyScheme::kSsp:
      out << "SSP(s=" << consistency.staleness << ")";
      break;
    case ConsistencyScheme::kPssp:
      out << "PSSP(s=" << consistency.staleness << ")";
      break;
    case ConsistencyScheme::kDssp:
      out << "DSSP(s0=" << consistency.dssp.initial_staleness << ")";
      break;
  }
  if (naive.enabled()) {
    out << "+NaiveWait(" << naive.delay.seconds() << "s)";
  }
  switch (speculation) {
    case SpeculationMode::kNone:
      break;
    case SpeculationMode::kFixed:
      out << "+SpecSync-Cherrypick";
      break;
    case SpeculationMode::kAdaptive:
      out << "+SpecSync-Adaptive";
      break;
  }
  return out.str();
}

WorkerProtocol::WorkerProtocol(
    const std::shared_ptr<const Model>& model,
    const std::shared_ptr<const LearningRateSchedule>& schedule,
    WorkerProtocolConfig config, FaultPlan& faults, Rng init_rng)
    : slots_(config.num_workers),
      faults_(faults),
      obs_(config.obs),
      metric_prefix_(std::move(config.metric_prefix)) {
  SPECSYNC_CHECK(model != nullptr);
  SPECSYNC_CHECK(schedule != nullptr);
  SPECSYNC_CHECK_GT(config.num_workers, 0u);
  for (const CrashEvent& event : faults_.config().crashes) {
    SPECSYNC_CHECK_LT(event.worker, config.num_workers);
  }
  for (const SlowdownWindow& window : faults_.config().slowdowns) {
    SPECSYNC_CHECK_LT(window.worker, config.num_workers);
  }

  store_ = std::make_unique<ParameterServer>(
      model->param_dim(), config.num_servers,
      std::make_shared<SgdApplier>(schedule, SgdConfig{config.sgd_clip}));
  store_->Initialize(*model, init_rng);

  if (config.compression.transforms_pushes()) {
    codec_ = std::make_unique<GradientCodec>(
        config.compression, config.num_workers, store_->layout());
  }

  controller_ = MakeConsistencyController(
      config.scheme.consistency, config.num_workers, store_->num_shards());
  if (auto* dssp = dynamic_cast<DynamicSspController*>(controller_.get())) {
    // DecisionAuditLog is internally locked: DSSP retunes and the
    // scheduler's records interleave safely across runtime worker threads.
    if (obs_ != nullptr) dssp->AttachAudit(&obs_->audit);
    dssp_ = dssp;
  }

  scheduler_ = MakeSpecSyncScheduler(
      config.num_workers, config.scheme.speculation,
      config.scheme.fixed_params, config.scheme.adaptive,
      config.default_span);

  if (obs_ != nullptr) {
    pull_counter_ = &obs_->metrics.counter(metric_prefix_ + ".pulls");
    push_counter_ = &obs_->metrics.counter(metric_prefix_ + ".pushes");
    abort_counter_ = &obs_->metrics.counter(metric_prefix_ + ".aborts");
    for (WorkerId w = 0; w < config.num_workers; ++w) {
      obs_->spans.SetTrackName(w, "worker " + std::to_string(w));
    }
    const auto sched_track = static_cast<std::uint32_t>(config.num_workers);
    obs_->spans.SetTrackName(sched_track, "scheduler");
    if (scheduler_) scheduler_->AttachObservability(obs_, sched_track);
    store_->AttachMetrics(&obs_->metrics);
  }
}

EpochId WorkerProtocol::GlobalEpoch() const {
  std::optional<IterationId> min_live;
  IterationId min_all = completed(0);
  for (WorkerId w = 0; w < slots_.size(); ++w) {
    const IterationId c = completed(w);
    min_all = std::min(min_all, c);
    if (!live(w)) continue;
    min_live = min_live.has_value() ? std::min(*min_live, c) : c;
  }
  return min_live.value_or(min_all);
}

// --- worker side -------------------------------------------------------------

template <typename Change>
void WorkerProtocol::ChangeGate(Change change) {
  if (!controller_) return;
  {
    std::scoped_lock lock(gate_mutex_);
    change(*controller_);
  }
  admitted_.notify_all();
}

bool WorkerProtocol::Admit(WorkerId w, SimTime now) {
  if (!live(w)) return false;
  bool admitted = true;
  if (controller_) {
    std::scoped_lock lock(gate_mutex_);
    admitted = controller_->MayStart(w, completed(w));
  }
  Slot& slot = slots_[w];
  if (admitted) {
    CloseBlocked(w, now);
  } else if (!slot.blocked) {
    slot.blocked = true;
    slot.blocked_since = now;
    blocks_.fetch_add(1, std::memory_order_relaxed);
  }
  return admitted;
}

bool WorkerProtocol::AwaitAdmission(
    WorkerId w, std::chrono::steady_clock::time_point deadline) {
  std::unique_lock lock(gate_mutex_);
  const auto may_start = [&] {
    return controller_->MayStart(w, completed(w));
  };
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    admitted_.wait(lock, may_start);
    return true;
  }
  return admitted_.wait_until(lock, deadline, may_start);
}

void WorkerProtocol::CloseBlocked(WorkerId w, SimTime now) {
  Slot& slot = slots_[w];
  if (!slot.blocked) return;
  slot.blocked = false;
  blocked_seconds_.fetch_add((now - slot.blocked_since).seconds(),
                             std::memory_order_relaxed);
  if (obs_ != nullptr) {
    obs_->spans.AddSpan("gated", "consistency", w, slot.blocked_since, now,
                        {{"iteration", std::to_string(completed(w))}});
  }
}

std::optional<ControlMessage> WorkerProtocol::RecordPull(
    WorkerId w, SimTime begin, SimTime end, std::uint64_t version) {
  Slot& slot = slots_[w];
  slot.snapshot_version = version;
  slot.resync.store(kNoReSync, std::memory_order_relaxed);
  slot.computing = true;
  slot.compute_start = end;
  if (obs_ != nullptr) {
    pull_counter_->Increment();
    obs_->spans.AddSpan("pull", "pull", w, begin, end,
                        {{"version", std::to_string(version)}});
  }
  if (!scheduler_) return std::nullopt;
  return ControlMessage{ControlMessage::Kind::kPull, w};
}

void WorkerProtocol::EndCompute(WorkerId w, SimTime now) {
  Slot& slot = slots_[w];
  slot.computing = false;
  if (obs_ != nullptr) {
    obs_->spans.AddSpan("compute", "compute", w, slot.compute_start, now,
                        {{"iteration", std::to_string(completed(w))}});
  }
}

void WorkerProtocol::PostReSync(WorkerId w, IterationId notified_iteration) {
  // The speculation window after a notify covers the next iteration.
  slots_[w].resync.store(static_cast<std::int64_t>(notified_iteration + 1),
                         std::memory_order_release);
}

std::optional<Duration> WorkerProtocol::TakeReSync(WorkerId w, SimTime now) {
  Slot& slot = slots_[w];
  const std::int64_t target =
      slot.resync.exchange(kNoReSync, std::memory_order_acq_rel);
  if (target == kNoReSync) return std::nullopt;
  const auto iteration = static_cast<IterationId>(target);
  // Too late once the iteration committed, moot while the worker pulls (the
  // snapshot will be fresh anyway), and at most one abort per iteration.
  if (!slot.computing || completed(w) != iteration ||
      slot.last_abort == iteration) {
    return std::nullopt;
  }
  slot.last_abort = iteration;
  slot.computing = false;
  const Duration wasted = now - slot.compute_start;
  aborts_.fetch_add(1, std::memory_order_relaxed);
  if (obs_ != nullptr) {
    abort_counter_->Increment();
    obs_->spans.AddSpan("aborted_compute", "abort", w, slot.compute_start, now,
                        {{"iteration", std::to_string(iteration)},
                         {"wasted_s", std::to_string(wasted.seconds())}});
  }
  return wasted;
}

void WorkerProtocol::PrepareCommit(WorkerId w, Gradient& grad, PushPlan& plan,
                                   bool route) {
  // What routes, and what the consistency layer learns as the write set, is
  // the gradient that ships: top-k may shrink the touched-shard set.
  if (codec_) codec_->Transform(w, grad);
  plan.routes.clear();
  plan.write_set.clear();
  if (!route && !controller_) return;
  store_->layout().RouteInto(grad, plan.routes);
  if (!controller_) return;
  for (const ShardRoute& r : plan.routes) plan.write_set.push_back(r.shard);
}

std::optional<IterationId> WorkerProtocol::Commit(
    WorkerId w, SimTime now, std::span<const std::size_t> write_set,
    bool landed) {
  if (!landed && !live(w)) return std::nullopt;
  const IterationId iteration = completed(w);
  // A slice lost on the wire is still part of the iteration's write set.
  ChangeGate([&](PerShardSspController& controller) {
    controller.OnPush(w, iteration, now, write_set);
  });
  slots_[w].completed.store(iteration + 1, std::memory_order_relaxed);
  return iteration;
}

std::uint64_t WorkerProtocol::RecordPush(WorkerId w, SimTime begin,
                                         SimTime end, IterationId iteration,
                                         std::uint64_t version) {
  const std::uint64_t missed = version - 1 - slots_[w].snapshot_version;
  if (obs_ != nullptr) {
    push_counter_->Increment();
    obs_->spans.AddSpan("push", "push", w, begin, end,
                        {{"iteration", std::to_string(iteration)},
                         {"version", std::to_string(version)},
                         {"missed_updates", std::to_string(missed)}});
  }
  return missed;
}

std::optional<ControlMessage> WorkerProtocol::Notify(WorkerId w,
                                                     IterationId iteration,
                                                     SimTime now) {
  if (!scheduler_ || !live(w)) return std::nullopt;
  if (obs_ != nullptr) {
    obs_->spans.AddInstant("notify", "control", w, now,
                           {{"iteration", std::to_string(iteration)}});
  }
  return ControlMessage{ControlMessage::Kind::kNotify, w, iteration};
}

std::optional<ControlMessage> WorkerProtocol::Crash(WorkerId w, SimTime now) {
  Slot& slot = slots_[w];
  if (!live(w)) return std::nullopt;
  CloseBlocked(w, now);
  slot.live.store(false, std::memory_order_relaxed);
  slot.computing = false;
  faults_.CountCrash();
  // Excuse the corpse from the bound, or every gated peer deadlocks on it.
  ChangeGate([w](PerShardSspController& c) { c.OnWorkerDown(w); });
  if (!scheduler_) return std::nullopt;
  return ControlMessage{ControlMessage::Kind::kWorkerDown, w};
}

std::optional<ControlMessage> WorkerProtocol::Rejoin(WorkerId w) {
  if (live(w)) return std::nullopt;
  slots_[w].live.store(true, std::memory_order_relaxed);
  faults_.CountRejoin();
  ChangeGate([w](PerShardSspController& c) { c.OnWorkerUp(w); });
  if (!scheduler_) return std::nullopt;
  return ControlMessage{ControlMessage::Kind::kWorkerUp, w};
}

// --- scheduler side ----------------------------------------------------------

std::optional<SpecSyncScheduler::CheckRequest> WorkerProtocol::Deliver(
    const ControlMessage& message, SimTime now) {
  if (!scheduler_) return std::nullopt;
  const WorkerId w = message.worker;
  switch (message.kind) {
    case ControlMessage::Kind::kNotify:
      return scheduler_->HandleNotify(w, message.iteration, now);
    case ControlMessage::Kind::kPull:
      scheduler_->HandlePull(w, now);
      break;
    case ControlMessage::Kind::kWorkerDown:
      scheduler_->OnWorkerDown(w, now);
      break;
    case ControlMessage::Kind::kWorkerUp:
      scheduler_->OnWorkerUp(w, now);
      break;
  }
  return std::nullopt;
}

bool WorkerProtocol::ReSyncDue(WorkerId w, std::uint64_t token, SimTime now) {
  return scheduler_->HandleCheckTimer(w, token, now);
}

// --- end of run --------------------------------------------------------------

ConsistencyStats WorkerProtocol::Finish(SimTime now) {
  for (WorkerId w = 0; w < slots_.size(); ++w) CloseBlocked(w, now);
  ConsistencyStats stats;
  stats.blocks = blocks_.load(std::memory_order_relaxed);
  stats.blocked_seconds = blocked_seconds_.load(std::memory_order_relaxed);
  if (dssp_ != nullptr) stats.retunes = dssp_->retunes();
  if (controller_) stats.final_staleness = controller_->staleness();
  return stats;
}

void WorkerProtocol::PublishGauges(const ConsistencyStats& stats,
                                   std::uint64_t total_pushes,
                                   double final_loss) const {
  if (obs_ == nullptr) return;
  const auto gauge = [&](const char* name, double value) {
    obs_->metrics.gauge(metric_prefix_ + "." + name).Set(value);
  };
  gauge("total_pushes", static_cast<double>(total_pushes));
  gauge("total_aborts", static_cast<double>(aborts()));
  gauge("final_loss", final_loss);
  gauge("consistency_blocks", static_cast<double>(stats.blocks));
  gauge("consistency_blocked_s", stats.blocked_seconds);
  gauge("consistency_final_staleness",
        static_cast<double>(stats.final_staleness));
}

}  // namespace specsync
