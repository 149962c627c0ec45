#include "sim/cluster.h"

#include <utility>

#include "common/check.h"
#include "common/logging.h"
#include "obs/obs.h"

namespace specsync {

struct ClusterSim::Impl {
  // --- immutable setup -----------------------------------------------------
  std::shared_ptr<const Model> model;
  std::shared_ptr<const LearningRateSchedule> schedule;
  std::unique_ptr<SpeedModel> speed;
  ClusterSimConfig config;

  // --- live components -----------------------------------------------------
  Simulator sim;
  Rng rng;
  NetworkModel network;
  StallSchedule stalls;
  FaultPlan faults;
  WorkerProtocol protocol;  // the store, the gate, each worker's state
  TrainingTrace trace;
  TransferAccountant transfers;

  // Delta pulls only: per-worker last-known shard versions; the worker's
  // persistent `snapshot` doubles as its parameter cache. Empty = delta off.
  static constexpr std::uint64_t kUnknownVersion = ~0ull;
  std::vector<std::vector<std::uint64_t>> known_shard_versions;

  // Observability (null = off) of what only the simulator does. Records
  // only: event order and RNG draws are the same with and without it.
  obs::ObsContext* obs = nullptr;
  obs::Counter* notify_counter = nullptr;
  obs::Counter* eval_counter = nullptr;
  obs::Counter* codec_push_saved_counter = nullptr;
  obs::Counter* codec_pull_saved_counter = nullptr;
  obs::Counter* codec_delta_hits_counter = nullptr;
  obs::Counter* codec_delta_misses_counter = nullptr;
  obs::LatencyHistogram* codec_push_ratio_hist = nullptr;
  double wasted_compute_seconds = 0.0;

  struct WorkerState {
    std::unique_ptr<BatchSampler> sampler;
    Rng rng;  // worker-private stream (compute jitter, batches share sampler's)
    DenseVector snapshot;          // parameters pulled for current iteration
    std::uint64_t compute_generation = 0;  // invalidates stale finish events
  };
  std::vector<WorkerState> workers;

  // Shared pull buffer (single-threaded event loop): OnPullComplete donates
  // the worker's old snapshot into it, PullInto refills it in place.
  PullResult pull_scratch;

  // --- convergence tracking ------------------------------------------------
  std::size_t below_target_streak = 0;
  std::optional<SimTime> convergence_time;
  std::optional<std::uint64_t> convergence_pushes;
  SimTime streak_start = SimTime::Zero();
  std::uint64_t streak_start_pushes = 0;
  bool stopped = false;

  Impl(std::shared_ptr<const Model> model_in,
       std::shared_ptr<const LearningRateSchedule> schedule_in,
       std::unique_ptr<SpeedModel> speed_in, ClusterSimConfig config_in)
      : model(std::move(model_in)),
        schedule(std::move(schedule_in)),
        speed(std::move(speed_in)),
        config(std::move(config_in)),
        rng(config.seed),
        network(config.network),
        stalls(config.stalls, Rng(config.seed ^ 0x57A11u)),
        faults(config.faults),
        protocol(model, schedule, ProtocolConfig(config, speed.get()), faults,
                 rng.Fork()),
        trace(config.num_workers) {
    SPECSYNC_CHECK_GT(config.batch_size, 0u);
    if (config.compression.delta_pulls()) {
      known_shard_versions.assign(
          config.num_workers,
          std::vector<std::uint64_t>(store().num_shards(), kUnknownVersion));
    }

    auto shards = ShardIndices(model->dataset_size(), config.num_workers);
    workers.reserve(config.num_workers);
    for (WorkerId w = 0; w < config.num_workers; ++w) {
      workers.emplace_back(
          std::make_unique<BatchSampler>(std::move(shards[w]),
                                         config.batch_size, rng.Fork()),
          rng.Fork());
    }

    obs = config.obs;
    if (obs != nullptr) {
      notify_counter = &obs->metrics.counter("sim.notifies_sent");
      eval_counter = &obs->metrics.counter("sim.evals");
      if (config.compression.enabled()) {
        codec_push_saved_counter =
            &obs->metrics.counter("net.codec.push_bytes_saved");
        codec_pull_saved_counter =
            &obs->metrics.counter("net.codec.pull_bytes_saved");
        codec_delta_hits_counter =
            &obs->metrics.counter("net.codec.delta_hits");
        codec_delta_misses_counter =
            &obs->metrics.counter("net.codec.delta_misses");
        codec_push_ratio_hist =
            &obs->metrics.histogram("net.codec.push_ratio");
      }
    }
  }

  static WorkerProtocolConfig ProtocolConfig(const ClusterSimConfig& config,
                                             const SpeedModel* speed) {
    SPECSYNC_CHECK(speed != nullptr);
    return {.num_workers = config.num_workers,
            .num_servers = config.num_servers,
            .sgd_clip = config.sgd_clip,
            .scheme = config.scheme,
            .default_span = speed->MeanComputeTime(0),
            .compression = config.compression,
            .obs = config.obs,
            .metric_prefix = "sim"};
  }

  ParameterServer& store() { return protocol.store(); }

  std::uint64_t TotalPushes() const { return trace.total_pushes(); }

  // --- worker lifecycle ----------------------------------------------------

  // One in-flight pull or push: the countdown of per-shard messages not yet
  // resolved. Shared by the shard-message events of a single attempt; a
  // crash-interrupted attempt simply never reaches zero (the rejoin starts a
  // fresh one).
  struct PullAttempt {
    std::size_t pending = 0;
    SimTime begin;  // when the fan-out was issued (span recording)
    // Delta mode only (empty otherwise): refreshed[s] = this pull carries
    // shard s's full slice; unset shards are composed from the worker's
    // cached snapshot at completion.
    std::vector<std::uint8_t> refreshed;
  };
  struct PushAttempt {
    Gradient grad;
    // Its routes and its write set (a dropped slice is still logically part
    // of the iteration's write set).
    PushPlan plan;
    std::size_t pending = 0;
    bool any_landed = false;  // at least one shard message reached the server
    SimTime begin;            // when the fan-out was issued (span recording)
  };

  void TryBeginIteration(WorkerId w) {
    if (stopped || !protocol.Admit(w, sim.now())) return;
    if (config.scheme.naive.enabled()) {
      sim.ScheduleAfter(config.scheme.naive.delay,
                        [this, w] { BeginPull(w); });
    } else {
      BeginPull(w);
    }
  }

  // A pull fans out as `num_servers` concurrent per-shard requests, planned
  // in shard order from the worker's stream — a deterministic (worker, shard)
  // keyed draw sequence that degenerates to exactly the legacy single draw at
  // num_servers = 1. The iteration resumes at the max per-shard arrival.
  void BeginPull(WorkerId w) {
    if (stopped || !protocol.live(w)) return;
    auto attempt = std::make_shared<PullAttempt>();
    attempt->pending = store().num_shards();
    attempt->begin = sim.now();
    if (!known_shard_versions.empty()) {
      attempt->refreshed.assign(store().num_shards(), 0);
    }
    for (std::size_t s = 0; s < store().num_shards(); ++s) {
      RequestShard(w, s, attempt);
    }
  }

  void RequestShard(WorkerId w, std::size_t s,
                    std::shared_ptr<PullAttempt> attempt) {
    if (stopped || !protocol.live(w)) return;
    // Delta mode: a shard whose version still matches the worker's cache
    // costs one control-sized not-modified answer instead of the full slice.
    // Lossless — an unchanged shard version implies unchanged content.
    std::uint64_t bytes = store().shard_bytes(s);
    bool unchanged = false;
    if (!known_shard_versions.empty()) {
      const std::uint64_t known = known_shard_versions[w][s];
      if (known != kUnknownVersion && store().shard(s).version == known) {
        unchanged = true;
        bytes = kControlMessageBytes;
      }
    }
    const NetworkModel::TransferPlan plan =
        network.PlanTransfer(bytes, LinkClass::kData, workers[w].rng, &faults);
    if (plan.drop) {
      // Lost shard request/response: the worker times out and re-requests
      // just that shard. (Duplicated pulls are idempotent reads and need no
      // special case.) The dropped attempt's bytes were still transmitted —
      // they land in the retransmit ledger, never in pull goodput.
      transfers.Charge(TransferCategory::kRetransmit, bytes, sim.now(), s);
      sim.ScheduleAfter(plan.delay + faults.config().pull_retry_timeout,
                        [this, w, s, attempt = std::move(attempt)] {
                          RequestShard(w, s, attempt);
                        });
      return;
    }
    // A stalled server cannot serve the shard; the response is batched with
    // everything else the stall delayed.
    const SimTime requested = sim.now();
    const SimTime arrival = stalls.Defer(sim.now() + plan.delay);
    sim.ScheduleAt(arrival, [this, w, s, requested, bytes, unchanged,
                             attempt = std::move(attempt)] {
      OnShardPullArrive(w, s, requested, bytes, unchanged, attempt);
    });
  }

  void OnShardPullArrive(WorkerId w, std::size_t s, SimTime requested,
                         std::uint64_t bytes, bool unchanged,
                         const std::shared_ptr<PullAttempt>& attempt) {
    if (stopped || !protocol.live(w)) return;
    transfers.Charge(TransferCategory::kPullParams, bytes, sim.now(), s);
    if (unchanged) {
      const std::uint64_t full = store().shard_bytes(s);
      if (full > bytes) {
        transfers.AddSavings(TransferCategory::kPullParams, full - bytes);
        if (codec_pull_saved_counter != nullptr) {
          codec_pull_saved_counter->Increment(full - bytes);
        }
      }
      if (codec_delta_hits_counter != nullptr) {
        codec_delta_hits_counter->Increment();
      }
    } else if (!attempt->refreshed.empty()) {
      attempt->refreshed[s] = 1;
      if (codec_delta_misses_counter != nullptr) {
        codec_delta_misses_counter->Increment();
      }
    }
    if (obs != nullptr) {
      obs->spans.AddSpan("pull_shard", "pull", w, requested, sim.now(),
                         {{"shard", std::to_string(s)}});
    }
    if (--attempt->pending > 0) return;
    OnPullComplete(w, *attempt);  // the last arrival is the max arrival
  }

  void OnPullComplete(WorkerId w, const PullAttempt& attempt) {
    WorkerState& worker = workers[w];
    std::uint64_t version = 0;
    if (!attempt.refreshed.empty()) {
      // Delta mode: copy only the refreshed shards over the worker's cached
      // snapshot; unchanged shards keep the cached content their matching
      // version guarantees is current (as of the plan-time check).
      worker.snapshot.resize(model->param_dim());
      for (std::size_t s = 0; s < store().num_shards(); ++s) {
        if (attempt.refreshed[s] == 0) continue;
        const ShardInfo info = store().shard(s);
        known_shard_versions[w][s] = store().PullShardSlice(
            s, std::span<double>(worker.snapshot.data() + info.offset,
                                 info.length));
      }
      version = store().version();
    } else {
      // The snapshot is composed when the slowest shard response lands; in
      // the single-threaded sim this is never torn (see param_store.h for
      // the threaded runtime's semantics).
      // Reuse the worker's previous snapshot buffer (donated to the shared
      // scratch) so steady-state pulls allocate nothing.
      pull_scratch.params = std::move(worker.snapshot);
      store().PullInto(&pull_scratch);
      worker.snapshot = std::move(pull_scratch.params);
      version = pull_scratch.version;
    }
    trace.RecordPull(w, sim.now(), version);
    // The scheduler sits beside the event loop: its pull notice is direct.
    // The worker computes from now on.
    if (const auto notice =
            protocol.RecordPull(w, attempt.begin, sim.now(), version)) {
      protocol.Deliver(*notice, sim.now());
    }
    StartCompute(w);
  }

  void StartCompute(WorkerId w) {
    WorkerState& worker = workers[w];
    const std::uint64_t generation = ++worker.compute_generation;
    Duration span = speed->ComputeTime(w, sim.now(), worker.rng);
    // Injected slowdown (background load, thermal throttling). The exact-1.0
    // guard keeps fault-free runs bit-identical.
    const double factor = faults.SlowdownFactor(w, sim.now());
    if (factor != 1.0) span = span * factor;
    sim.ScheduleAfter(span, [this, w, generation] {
      if (stopped) return;
      if (workers[w].compute_generation != generation) return;  // aborted
      OnComputeDone(w);
    });
  }

  void OnComputeDone(WorkerId w) {
    WorkerState& worker = workers[w];
    protocol.EndCompute(w, sim.now());
    // The gradient is evaluated on the snapshot pulled at iteration start —
    // any pushes applied since then are invisible to it (the staleness the
    // paper studies).
    auto attempt = std::make_shared<PushAttempt>();
    const std::vector<std::size_t> batch = worker.sampler->NextBatch();
    model->LossAndGradient(worker.snapshot, batch, attempt->grad);
    // The push fans out as one message per dirty shard (sparse gradients
    // route only to the shards owning their indices); each slice applies at
    // its own arrival, and the worker proceeds once every message resolved.
    protocol.PrepareCommit(w, attempt->grad, attempt->plan, /*route=*/true);
    std::vector<ShardRoute>& routes = attempt->plan.routes;
    if (config.compression.transforms_pushes()) {
      // Charge the coded wire size; the raw-minus-coded delta goes to the
      // savings ledger (top-k's savings are implicit in the smaller nnz).
      const std::uint64_t saved = CodeRoutes(
          config.compression.kind, attempt->grad.is_sparse(), routes);
      transfers.AddSavings(TransferCategory::kPushGrads, saved);
      if (codec_push_saved_counter != nullptr) {
        codec_push_saved_counter->Increment(saved);
      }
      std::uint64_t charged = 0;
      for (const ShardRoute& route : routes) charged += route.bytes;
      if (codec_push_ratio_hist != nullptr && charged + saved > 0) {
        codec_push_ratio_hist->Record(static_cast<double>(charged) /
                                      static_cast<double>(charged + saved));
      }
    }
    attempt->pending = routes.size();
    attempt->begin = sim.now();
    for (const ShardRoute& route : routes) {
      const NetworkModel::TransferPlan plan = network.PlanTransfer(
          route.bytes, LinkClass::kData, worker.rng, &faults);
      if (plan.drop) {
        // The slice vanishes on the wire, but the worker cannot know: it
        // proceeds (and notifies) as if the push landed. No stall defer — the
        // message never reaches the server.
        sim.ScheduleAfter(plan.delay,
                          [this, w, attempt] { OnShardPushLost(w, attempt); });
        continue;
      }
      const SimTime arrival = stalls.Defer(sim.now() + plan.delay);
      sim.ScheduleAt(arrival, [this, w, route, attempt] {
        OnShardPushArrive(w, route, attempt);
      });
      if (plan.duplicate) {
        // Network-level replay: the slice is applied a second time, but the
        // worker-side bookkeeping (completed, notify) happens only once and
        // no second logical push is committed.
        sim.ScheduleAt(arrival, [this, route, attempt] {
          OnDuplicateShardPush(route, attempt);
        });
      }
    }
  }

  void OnShardPushArrive(WorkerId w, ShardRoute route,
                         const std::shared_ptr<PushAttempt>& attempt) {
    if (stopped) return;
    ApplySlice(route, *attempt);
    attempt->any_landed = true;
    if (--attempt->pending > 0) return;
    FinalizePush(w, *attempt);
  }

  // A slice dropped in transit: the server never sees it (partial pushes are
  // real in a multi-server PS), but the worker-side protocol proceeds once
  // all slices resolved.
  void OnShardPushLost(WorkerId w, const std::shared_ptr<PushAttempt>& attempt) {
    if (stopped) return;
    if (--attempt->pending > 0) return;
    FinalizePush(w, *attempt);
  }

  // Second delivery of a duplicated slice: server-side effect only.
  void OnDuplicateShardPush(ShardRoute route,
                            const std::shared_ptr<PushAttempt>& attempt) {
    if (!stopped) ApplySlice(route, *attempt);
  }

  void ApplySlice(const ShardRoute& route, const PushAttempt& attempt) {
    store().PushRoute(route, attempt.grad, protocol.GlobalEpoch());
    transfers.Charge(TransferCategory::kPushGrads, route.bytes, sim.now(),
                     route.shard);
  }

  // Every shard message of a push resolved (landed or lost); the worker's
  // protocol step happens exactly once, at the max resolution time.
  void FinalizePush(WorkerId w, const PushAttempt& attempt) {
    const bool landed = attempt.any_landed;
    const std::uint64_t version = landed ? store().CommitPush() : 0;
    const std::optional<IterationId> iteration =
        protocol.Commit(w, sim.now(), attempt.plan.write_set, landed);
    if (!iteration.has_value()) return;
    if (landed) {
      const std::uint64_t missed =
          protocol.RecordPush(w, attempt.begin, sim.now(), *iteration, version);
      trace.RecordPush(w, sim.now(), *iteration, version, missed);
      if (config.max_pushes != 0 && TotalPushes() >= config.max_pushes) {
        stopped = true;
        sim.RequestStop();
        return;
      }
    }
    SendNotify(w, *iteration);
    // The push may unblock peers under BSP/SSP even when its worker is gone.
    ReleaseBlockedWorkers();
    TryBeginIteration(w);
  }

  void SendNotify(WorkerId w, IterationId iteration) {
    const std::optional<ControlMessage> notify =
        protocol.Notify(w, iteration, sim.now());
    if (!notify.has_value()) return;
    if (notify_counter != nullptr) notify_counter->Increment();
    SendControl(w, [this, message = *notify] { OnNotifyArrive(message); });
  }

  // One control message on worker w's link: lost (a lost notify is never
  // heard of, a lost re-sync leaves the worker computing stale), delayed,
  // or delivered twice.
  template <typename Deliver>
  void SendControl(WorkerId w, Deliver deliver) {
    const NetworkModel::TransferPlan plan = network.PlanTransfer(
        kControlMessageBytes, LinkClass::kControl, workers[w].rng, &faults);
    if (plan.drop) return;
    sim.ScheduleAfter(plan.delay, deliver);
    if (plan.duplicate) sim.ScheduleAfter(plan.delay, deliver);
  }

  // --- SpecSync protocol (Algorithm 2 driver) ------------------------------

  void OnNotifyArrive(const ControlMessage& notify) {
    if (stopped) return;
    transfers.Charge(TransferCategory::kNotify, kControlMessageBytes,
                     sim.now());
    const auto request = protocol.Deliver(notify, sim.now());
    if (!request.has_value()) return;
    const WorkerId w = notify.worker;
    const std::uint64_t token = request->token;
    const IterationId iteration = notify.iteration;
    sim.ScheduleAfter(request->delay, [this, w, token, iteration] {
      OnCheckTimer(w, token, iteration);
    });
  }

  void OnCheckTimer(WorkerId w, std::uint64_t token, IterationId iteration) {
    if (stopped) return;
    if (!protocol.ReSyncDue(w, token, sim.now())) return;
    SendControl(w, [this, w, iteration] { OnReSyncArrive(w, iteration); });
  }

  // A re-sync lands and is acted on at once: a simulated computation can be
  // interrupted at any instant.
  void OnReSyncArrive(WorkerId w, IterationId notified_iteration) {
    if (stopped) return;
    transfers.Charge(TransferCategory::kReSync, kControlMessageBytes,
                     sim.now());
    protocol.PostReSync(w, notified_iteration);
    const std::optional<Duration> wasted = protocol.TakeReSync(w, sim.now());
    if (!wasted.has_value()) return;
    trace.RecordAbort(w, sim.now(), *wasted);
    wasted_compute_seconds += wasted->seconds();
    ++workers[w].compute_generation;  // cancels the in-flight finish event
    BeginPull(w);  // re-synchronize: fresh pull, then restart computation
  }

  // --- injected worker lifecycle -------------------------------------------

  void OnWorkerCrash(const CrashEvent& event) {
    const WorkerId w = event.worker;
    if (stopped || !protocol.live(w)) return;
    if (const auto down = protocol.Crash(w, sim.now())) {
      protocol.Deliver(*down, sim.now());
    }
    ++workers[w].compute_generation;  // cancels any in-flight compute finish
    SPECSYNC_LOG(kDebug) << "worker " << w << " crashed at " << sim.now();
    // The departure may have been what gated peers were waiting on.
    ReleaseBlockedWorkers();
    if (event.rejoin.has_value()) {
      sim.ScheduleAt(*event.rejoin, [this, w] { OnWorkerRejoin(w); });
    }
  }

  void OnWorkerRejoin(WorkerId w) {
    if (stopped || protocol.live(w)) return;
    if (const auto up = protocol.Rejoin(w)) protocol.Deliver(*up, sim.now());
    SPECSYNC_LOG(kDebug) << "worker " << w << " rejoined at " << sim.now();
    // No memory of in-flight work: start from a fresh pull.
    TryBeginIteration(w);
  }

  void ReleaseBlockedWorkers() {
    for (WorkerId w = 0; w < config.num_workers; ++w) {
      // Admitting here closes the blocked interval, so a second release
      // arriving before the deferred event runs schedules nothing twice.
      if (!protocol.blocked(w) || !protocol.Admit(w, sim.now())) continue;
      // Defer to a fresh event to keep the release order FIFO and avoid
      // deep recursion through OnPushArrive.
      sim.ScheduleAfter(Duration::Zero(), [this, w] { TryBeginIteration(w); });
    }
  }

  // --- evaluation ----------------------------------------------------------

  double EvaluateLoss() {
    const DenseVector snapshot = store().Snapshot();
    return model->FullLoss(snapshot, config.eval_subsample);
  }

  void OnEvalTimer() {
    if (stopped) return;
    const double loss = EvaluateLoss();
    trace.RecordLoss(sim.now(), loss, TotalPushes(), protocol.GlobalEpoch());
    if (obs != nullptr) {
      eval_counter->Increment();
      obs->spans.AddInstant(
          "eval", "eval", static_cast<std::uint32_t>(config.num_workers),
          sim.now(), {{"loss", std::to_string(loss)}});
    }
    if (config.loss_target > 0.0) {
      if (loss < config.loss_target) {
        if (below_target_streak == 0) {
          streak_start = sim.now();
          streak_start_pushes = TotalPushes();
        }
        ++below_target_streak;
        if (below_target_streak >= config.convergence_patience &&
            !convergence_time.has_value()) {
          convergence_time = streak_start;
          convergence_pushes = streak_start_pushes;
          if (config.stop_on_convergence) {
            stopped = true;
            sim.RequestStop();
            return;
          }
        }
      } else {
        below_target_streak = 0;
        // A later excursion above target does not un-converge a run that
        // already met the patience criterion (matches "staying below for 5
        // consecutive" read as first-hit time).
      }
    }
    sim.ScheduleAfter(config.eval_interval, [this] { OnEvalTimer(); });
  }

  SimResult Run() {
    for (WorkerId w = 0; w < config.num_workers; ++w) {
      sim.ScheduleAfter(Duration::Zero(), [this, w] { TryBeginIteration(w); });
    }
    for (const CrashEvent& event : faults.crashes()) {
      sim.ScheduleAt(event.at, [this, event] { OnWorkerCrash(event); });
    }
    sim.ScheduleAfter(config.eval_interval, [this] { OnEvalTimer(); });
    sim.Run(config.max_time);

    SimResult result;
    result.final_weights = store().Snapshot();
    result.final_loss = model->FullLoss(result.final_weights,
                                        config.eval_subsample);
    result.end_time = sim.now();
    result.total_pushes = TotalPushes();
    result.total_aborts = trace.total_aborts();
    result.sim_events = sim.events_processed();
    result.convergence_time = convergence_time;
    result.convergence_pushes = convergence_pushes;
    if (const SpecSyncScheduler* scheduler = protocol.scheduler()) {
      result.scheduler_stats = scheduler->stats();
      result.final_params = scheduler->params();
    }
    result.fault_stats = faults.stats();
    result.consistency = protocol.Finish(sim.now());
    trace.RecordLoss(sim.now(), result.final_loss, TotalPushes(),
                     protocol.GlobalEpoch());
    protocol.PublishGauges(result.consistency, result.total_pushes,
                           result.final_loss);
    if (obs != nullptr) {
      obs->metrics.gauge("sim.events_processed")
          .Set(static_cast<double>(result.sim_events));
      obs->metrics.gauge("sim.end_time_s").Set(result.end_time.seconds());
      obs->metrics.gauge("sim.wasted_compute_s").Set(wasted_compute_seconds);
    }
    result.trace = std::move(trace);
    result.transfers = std::move(transfers);
    return result;
  }
};

ClusterSim::ClusterSim(std::shared_ptr<const Model> model,
                       std::shared_ptr<const LearningRateSchedule> schedule,
                       std::unique_ptr<SpeedModel> speed,
                       ClusterSimConfig config)
    : impl_(std::make_unique<Impl>(std::move(model), std::move(schedule),
                                   std::move(speed), std::move(config))) {}

ClusterSim::~ClusterSim() = default;

SimResult ClusterSim::Run() { return impl_->Run(); }

}  // namespace specsync
