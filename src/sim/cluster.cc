#include "sim/cluster.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/logging.h"
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

namespace {

std::unique_ptr<SpeculationPolicy> MakePolicy(const SchemeSpec& scheme) {
  switch (scheme.speculation) {
    case SpeculationMode::kNone:
      return std::make_unique<DisabledSpeculationPolicy>();
    case SpeculationMode::kFixed:
      return std::make_unique<FixedSpeculationPolicy>(scheme.fixed_params);
    case SpeculationMode::kAdaptive:
      return std::make_unique<AdaptiveTuner>(scheme.adaptive);
  }
  SPECSYNC_CHECK(false) << "unknown speculation mode";
  return nullptr;
}

}  // namespace

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
  std::unique_ptr<ParameterServer> server;
  // Iteration-start gate (null under ASP: every start is admitted). `dssp`
  // views it when the bound is dynamic; set once at construction.
  std::unique_ptr<PerShardSspController> controller;
  DynamicSspController* dssp = nullptr;
  std::unique_ptr<SpecSyncScheduler> scheduler;  // null when speculation off
  TrainingTrace trace;
  TransferAccountant transfers;

  // Gradient wire codec (null = codec off). Everything codec-related is
  // guarded on it (or on `known_shard_versions` for delta) so codec=none
  // takes exactly the legacy code paths and keeps the golden digests.
  std::unique_ptr<GradientCodec> codec;
  // Delta pulls only: per-worker last-known shard versions; the worker's
  // persistent `snapshot` doubles as its parameter cache. Empty = delta off.
  static constexpr std::uint64_t kUnknownVersion = ~0ull;
  std::vector<std::vector<std::uint64_t>> known_shard_versions;

  // Observability (null = off). Counters are resolved once at construction;
  // every record is append-only, so event order and RNG draws are identical
  // with and without `obs`.
  obs::ObsContext* obs = nullptr;
  obs::Counter* pull_counter = nullptr;
  obs::Counter* push_counter = nullptr;
  obs::Counter* abort_counter = nullptr;
  obs::Counter* notify_counter = nullptr;
  obs::Counter* eval_counter = nullptr;
  obs::Counter* codec_push_saved_counter = nullptr;
  obs::Counter* codec_pull_saved_counter = nullptr;
  obs::Counter* codec_delta_hits_counter = nullptr;
  obs::Counter* codec_delta_misses_counter = nullptr;
  obs::LatencyHistogram* codec_push_ratio_hist = nullptr;
  double wasted_compute_seconds = 0.0;

  // Consistency-gate accounting (virtual time workers spent blocked).
  std::uint64_t gate_blocks = 0;
  double gate_blocked_seconds = 0.0;

  struct WorkerState {
    std::unique_ptr<BatchSampler> sampler;
    Rng rng;  // worker-private stream (compute jitter, batches share sampler's)
    IterationId completed = 0;     // pushes so far
    DenseVector snapshot;          // parameters pulled for current iteration
    std::uint64_t snapshot_version = 0;
    bool computing = false;
    bool blocked = false;          // gated by BSP/SSP/PSSP/DSSP
    bool crashed = false;          // down due to an injected CrashEvent
    SimTime block_begin = SimTime::Zero();  // when the gate closed (if blocked)
    SimTime compute_start = SimTime::Zero();
    std::uint64_t compute_generation = 0;  // invalidates stale finish events
    // Iteration already aborted once; makes re-sync delivery idempotent
    // under duplicated/delayed control messages.
    std::optional<IterationId> last_abort;

    WorkerState(std::unique_ptr<BatchSampler> s, Rng r)
        : sampler(std::move(s)), rng(std::move(r)) {}
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
        trace(config.num_workers) {
    SPECSYNC_CHECK(model != nullptr);
    SPECSYNC_CHECK(schedule != nullptr);
    SPECSYNC_CHECK(speed != nullptr);
    SPECSYNC_CHECK_GT(config.num_workers, 0u);
    SPECSYNC_CHECK_GT(config.batch_size, 0u);
    for (const CrashEvent& event : config.faults.crashes) {
      SPECSYNC_CHECK_LT(event.worker, config.num_workers);
    }
    for (const SlowdownWindow& window : config.faults.slowdowns) {
      SPECSYNC_CHECK_LT(window.worker, config.num_workers);
    }

    auto applier = std::make_shared<SgdApplier>(schedule,
                                                SgdConfig{config.sgd_clip});
    server = std::make_unique<ParameterServer>(
        model->param_dim(), config.num_servers, std::move(applier));
    Rng init_rng = rng.Fork();
    server->Initialize(*model, init_rng);

    if (config.compression.transforms_pushes()) {
      codec = std::make_unique<GradientCodec>(
          config.compression, config.num_workers, server->layout());
    }
    if (config.compression.delta_pulls()) {
      known_shard_versions.assign(
          config.num_workers,
          std::vector<std::uint64_t>(server->num_shards(), kUnknownVersion));
    }

    controller = MakeConsistencyController(
        config.scheme.consistency, config.num_workers, server->num_shards());
    dssp = dynamic_cast<DynamicSspController*>(controller.get());
    if (config.scheme.speculation != SpeculationMode::kNone) {
      SchedulerConfig sched_config;
      sched_config.num_workers = config.num_workers;
      // Cherrypick values take effect from the very first iteration; the
      // adaptive tuner needs one epoch of history first.
      if (config.scheme.speculation == SpeculationMode::kFixed) {
        sched_config.initial_params = config.scheme.fixed_params;
      }
      sched_config.default_span = speed->MeanComputeTime(0);
      scheduler = std::make_unique<SpecSyncScheduler>(
          sched_config, MakePolicy(config.scheme));
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
      pull_counter = &obs->metrics.counter("sim.pulls");
      push_counter = &obs->metrics.counter("sim.pushes");
      abort_counter = &obs->metrics.counter("sim.aborts");
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
      for (WorkerId w = 0; w < config.num_workers; ++w) {
        obs->spans.SetTrackName(w, "worker " + std::to_string(w));
      }
      const auto sched_track =
          static_cast<std::uint32_t>(config.num_workers);
      obs->spans.SetTrackName(sched_track, "scheduler");
      if (scheduler) scheduler->AttachObservability(obs, sched_track);
      if (dssp) dssp->AttachAudit(&obs->audit);
      server->AttachMetrics(&obs->metrics);
    }
  }

  // Global epoch for the learning-rate schedule: completed iterations of the
  // slowest *live* worker (paper Sec. II-B's epoch definition). A crashed
  // worker must not pin the learning rate forever; if every worker is down,
  // fall back to the overall minimum.
  EpochId GlobalEpoch() const {
    std::optional<IterationId> min_live;
    IterationId min_all = workers[0].completed;
    for (const WorkerState& w : workers) {
      min_all = std::min(min_all, w.completed);
      if (w.crashed) continue;
      min_live = min_live.has_value() ? std::min(*min_live, w.completed)
                                      : w.completed;
    }
    return min_live.value_or(min_all);
  }

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
    std::shared_ptr<Gradient> grad;
    std::size_t pending = 0;
    bool any_landed = false;  // at least one shard message reached the server
    SimTime begin;            // when the fan-out was issued (span recording)
    // Shards this push routes to (its write set for per-shard consistency).
    // The controller learns it at FinalizePush regardless of drops: a dropped
    // slice is still logically part of the iteration's write set.
    std::vector<std::size_t> shards;
  };

  // Closes the books on a blocked interval: accumulates gated virtual time
  // and emits the span. Idempotent (no-op when not blocked).
  void ClearBlocked(WorkerId w) {
    WorkerState& worker = workers[w];
    if (!worker.blocked) return;
    worker.blocked = false;
    gate_blocked_seconds += (sim.now() - worker.block_begin).seconds();
    if (obs != nullptr) {
      obs->spans.AddSpan("gated", "consistency", w, worker.block_begin,
                         sim.now(),
                         {{"iteration", std::to_string(worker.completed)}});
    }
  }

  void TryBeginIteration(WorkerId w) {
    if (stopped || workers[w].crashed) return;
    WorkerState& worker = workers[w];
    if (controller && !controller->MayStart(w, worker.completed)) {
      if (!worker.blocked) {
        worker.blocked = true;
        worker.block_begin = sim.now();
        ++gate_blocks;
      }
      return;
    }
    ClearBlocked(w);
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
    if (stopped || workers[w].crashed) return;
    auto attempt = std::make_shared<PullAttempt>();
    attempt->pending = server->num_shards();
    attempt->begin = sim.now();
    if (!known_shard_versions.empty()) {
      attempt->refreshed.assign(server->num_shards(), 0);
    }
    for (std::size_t s = 0; s < server->num_shards(); ++s) {
      RequestShard(w, s, attempt);
    }
  }

  void RequestShard(WorkerId w, std::size_t s,
                    std::shared_ptr<PullAttempt> attempt) {
    if (stopped || workers[w].crashed) return;
    // Delta mode: a shard whose version still matches the worker's cache
    // costs one control-sized not-modified answer instead of the full slice.
    // Lossless — an unchanged shard version implies unchanged content.
    std::uint64_t bytes = server->shard_bytes(s);
    bool unchanged = false;
    if (!known_shard_versions.empty()) {
      const std::uint64_t known = known_shard_versions[w][s];
      if (known != kUnknownVersion && server->shard(s).version == known) {
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
    if (stopped || workers[w].crashed) return;
    transfers.Charge(TransferCategory::kPullParams, bytes, sim.now(), s);
    if (unchanged) {
      const std::uint64_t full = server->shard_bytes(s);
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
      for (std::size_t s = 0; s < server->num_shards(); ++s) {
        if (attempt.refreshed[s] == 0) continue;
        const ShardInfo info = server->shard(s);
        known_shard_versions[w][s] = server->PullShardSlice(
            s, std::span<double>(worker.snapshot.data() + info.offset,
                                 info.length));
      }
      version = server->version();
      worker.snapshot_version = version;
    } else {
      // The snapshot is composed when the slowest shard response lands; in
      // the single-threaded sim this is never torn (see param_store.h for
      // the threaded runtime's semantics).
      // Reuse the worker's previous snapshot buffer (donated to the shared
      // scratch) so steady-state pulls allocate nothing.
      pull_scratch.params = std::move(worker.snapshot);
      server->PullInto(&pull_scratch);
      worker.snapshot = std::move(pull_scratch.params);
      worker.snapshot_version = pull_scratch.version;
      version = pull_scratch.version;
    }
    trace.RecordPull(w, sim.now(), version);
    if (obs != nullptr) {
      pull_counter->Increment();
      obs->spans.AddSpan("pull", "pull", w, attempt.begin, sim.now(),
                         {{"version", std::to_string(version)}});
    }
    if (scheduler) scheduler->HandlePull(w, sim.now());
    StartCompute(w);
  }

  void StartCompute(WorkerId w) {
    WorkerState& worker = workers[w];
    worker.computing = true;
    worker.compute_start = sim.now();
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
    worker.computing = false;
    if (obs != nullptr) {
      obs->spans.AddSpan("compute", "compute", w, worker.compute_start,
                         sim.now(),
                         {{"iteration", std::to_string(worker.completed)}});
    }
    // The gradient is evaluated on the snapshot pulled at iteration start —
    // any pushes applied since then are invisible to it (the staleness the
    // paper studies).
    auto grad = std::make_shared<Gradient>();
    const std::vector<std::size_t> batch = worker.sampler->NextBatch();
    model->LossAndGradient(worker.snapshot, batch, *grad);
    // Codec transform before routing: top-k folds this worker's residual in
    // and shrinks the support (and possibly the touched-shard set), int8/fp16
    // quantize values in place per shard slice. What routes — and what the
    // consistency layer sees as the write set — is the shipped gradient.
    if (codec) codec->Transform(w, *grad);
    // The push fans out as one message per dirty shard (sparse gradients
    // route only to the shards owning their indices); each slice applies at
    // its own arrival, and the worker proceeds once every message resolved.
    std::vector<ShardRoute> routes;
    server->layout().RouteInto(*grad, routes);
    if (codec != nullptr) {
      // Charge the coded wire size; the raw-minus-coded delta goes to the
      // savings ledger (top-k's savings are implicit in the smaller nnz).
      const std::uint64_t saved =
          CodeRoutes(config.compression.kind, grad->is_sparse(), routes);
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
    auto attempt = std::make_shared<PushAttempt>();
    attempt->grad = grad;
    attempt->pending = routes.size();
    attempt->begin = sim.now();
    attempt->shards.reserve(routes.size());
    for (const ShardRoute& route : routes) {
      attempt->shards.push_back(route.shard);
    }
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
    server->PushRoute(route, *attempt->grad, GlobalEpoch());
    transfers.Charge(TransferCategory::kPushGrads, route.bytes, sim.now(),
                     route.shard);
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
    if (stopped) return;
    server->PushRoute(route, *attempt->grad, GlobalEpoch());
    transfers.Charge(TransferCategory::kPushGrads, route.bytes, sim.now(),
                     route.shard);
  }

  // Every shard message of a push resolved (landed or lost); the worker's
  // protocol step happens exactly once, at the max resolution time.
  void FinalizePush(WorkerId w, const PushAttempt& attempt) {
    WorkerState& worker = workers[w];
    if (attempt.any_landed) {
      const std::uint64_t version = server->CommitPush();
      const std::uint64_t missed = version - 1 - worker.snapshot_version;
      const IterationId iteration = worker.completed;
      trace.RecordPush(w, sim.now(), iteration, version, missed);
      if (obs != nullptr) {
        push_counter->Increment();
        obs->spans.AddSpan("push", "push", w, attempt.begin, sim.now(),
                           {{"iteration", std::to_string(iteration)},
                            {"version", std::to_string(version)},
                            {"missed_updates", std::to_string(missed)}});
      }
      if (controller) {
        controller->OnPush(w, iteration, sim.now(), attempt.shards);
      }
      worker.completed = iteration + 1;

      if (config.max_pushes != 0 && TotalPushes() >= config.max_pushes) {
        stopped = true;
        sim.RequestStop();
        return;
      }

      // A push from a worker that crashed while the message was in flight
      // still lands on the server, but the worker is gone: no notify, no next
      // iteration. Its push may still unblock others under BSP/SSP.
      if (!worker.crashed) SendNotify(w, iteration);
      ReleaseBlockedWorkers();
      if (!worker.crashed) TryBeginIteration(w);
      return;
    }
    // Every slice was dropped: the server saw nothing, but the worker
    // proceeds exactly as after a real push.
    if (worker.crashed) return;
    const IterationId iteration = worker.completed;
    if (controller) controller->OnPush(w, iteration, sim.now(), attempt.shards);
    worker.completed = iteration + 1;
    SendNotify(w, iteration);
    ReleaseBlockedWorkers();
    TryBeginIteration(w);
  }

  void SendNotify(WorkerId w, IterationId iteration) {
    if (!scheduler) return;
    if (obs != nullptr) {
      notify_counter->Increment();
      obs->spans.AddInstant("notify", "control", w, sim.now(),
                            {{"iteration", std::to_string(iteration)}});
    }
    const NetworkModel::TransferPlan plan = network.PlanTransfer(
        kControlMessageBytes, LinkClass::kControl, workers[w].rng, &faults);
    if (plan.drop) return;  // the scheduler never hears about this push
    sim.ScheduleAfter(plan.delay,
                      [this, w, iteration] { OnNotifyArrive(w, iteration); });
    if (plan.duplicate) {
      sim.ScheduleAfter(plan.delay,
                        [this, w, iteration] { OnNotifyArrive(w, iteration); });
    }
  }

  // --- SpecSync protocol (Algorithm 2 driver) ------------------------------

  void OnNotifyArrive(WorkerId w, IterationId iteration) {
    if (stopped) return;
    transfers.Charge(TransferCategory::kNotify, kControlMessageBytes,
                     sim.now());
    auto request = scheduler->HandleNotify(w, iteration, sim.now());
    if (!request.has_value()) return;
    const std::uint64_t token = request->token;
    sim.ScheduleAfter(request->delay, [this, w, token, iteration] {
      OnCheckTimer(w, token, iteration);
    });
  }

  void OnCheckTimer(WorkerId w, std::uint64_t token, IterationId iteration) {
    if (stopped) return;
    if (!scheduler->HandleCheckTimer(w, token, sim.now())) return;
    const NetworkModel::TransferPlan plan = network.PlanTransfer(
        kControlMessageBytes, LinkClass::kControl, workers[w].rng, &faults);
    if (plan.drop) return;  // lost re-sync: the worker keeps computing stale
    sim.ScheduleAfter(plan.delay,
                      [this, w, iteration] { OnReSyncArrive(w, iteration); });
    if (plan.duplicate) {
      sim.ScheduleAfter(plan.delay,
                        [this, w, iteration] { OnReSyncArrive(w, iteration); });
    }
  }

  void OnReSyncArrive(WorkerId w, IterationId notified_iteration) {
    if (stopped) return;
    transfers.Charge(TransferCategory::kReSync, kControlMessageBytes,
                     sim.now());
    WorkerState& worker = workers[w];
    // The notify was sent when `notified_iteration` finished; the speculation
    // window covers iteration notified_iteration + 1. Abort only if the
    // worker is still computing that iteration ("if that is not too late
    // yet", Sec. IV-A). If it is mid-pull, the snapshot will be fresh anyway.
    if (worker.completed != notified_iteration + 1 || !worker.computing) {
      return;
    }
    // A duplicated or delayed re-sync must not abort the *restarted*
    // computation of the same iteration: one abort per iteration.
    if (worker.last_abort == notified_iteration) return;
    worker.last_abort = notified_iteration;
    const Duration wasted = sim.now() - worker.compute_start;
    trace.RecordAbort(w, sim.now(), wasted);
    if (obs != nullptr) {
      abort_counter->Increment();
      wasted_compute_seconds += wasted.seconds();
      obs->spans.AddSpan(
          "aborted_compute", "abort", w, worker.compute_start, sim.now(),
          {{"iteration", std::to_string(notified_iteration + 1)},
           {"wasted_s", std::to_string(wasted.seconds())}});
    }
    ++worker.compute_generation;  // cancels the in-flight finish event
    worker.computing = false;
    BeginPull(w);  // re-synchronize: fresh pull, then restart computation
  }

  // --- injected worker lifecycle -------------------------------------------

  void OnWorkerCrash(const CrashEvent& event) {
    if (stopped) return;
    WorkerState& worker = workers[event.worker];
    if (worker.crashed) return;
    ClearBlocked(event.worker);
    worker.crashed = true;
    worker.computing = false;
    ++worker.compute_generation;  // cancels any in-flight compute finish
    faults.CountCrash();
    SPECSYNC_LOG(kDebug) << "worker " << event.worker << " crashed at "
                         << sim.now();
    if (scheduler) scheduler->OnWorkerDown(event.worker, sim.now());
    // Excuse the corpse from the bound and re-check every gated peer — the
    // departure may have been what they were waiting on.
    if (controller) controller->OnWorkerDown(event.worker);
    ReleaseBlockedWorkers();
    if (event.rejoin.has_value()) {
      const WorkerId w = event.worker;
      sim.ScheduleAt(*event.rejoin, [this, w] { OnWorkerRejoin(w); });
    }
  }

  void OnWorkerRejoin(WorkerId w) {
    if (stopped) return;
    WorkerState& worker = workers[w];
    if (!worker.crashed) return;
    worker.crashed = false;
    faults.CountRejoin();
    SPECSYNC_LOG(kDebug) << "worker " << w << " rejoined at " << sim.now();
    if (scheduler) scheduler->OnWorkerUp(w, sim.now());
    if (controller) controller->OnWorkerUp(w);
    // No memory of in-flight work: start from a fresh pull.
    TryBeginIteration(w);
  }

  void ReleaseBlockedWorkers() {
    for (WorkerId w = 0; w < config.num_workers; ++w) {
      if (!workers[w].blocked) continue;
      if (controller->MayStart(w, workers[w].completed)) {
        // Clear before scheduling: a second release arriving before the
        // deferred event runs must not schedule the iteration twice.
        ClearBlocked(w);
        // Defer to a fresh event to keep the release order FIFO and avoid
        // deep recursion through OnPushArrive.
        sim.ScheduleAfter(Duration::Zero(),
                          [this, w] { TryBeginIteration(w); });
      }
    }
  }

  // --- evaluation ----------------------------------------------------------

  double EvaluateLoss() {
    const DenseVector snapshot = server->Snapshot();
    return model->FullLoss(snapshot, config.eval_subsample);
  }

  void OnEvalTimer() {
    if (stopped) return;
    const double loss = EvaluateLoss();
    trace.RecordLoss(sim.now(), loss, TotalPushes(), GlobalEpoch());
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
    result.final_weights = server->Snapshot();
    result.final_loss = model->FullLoss(result.final_weights,
                                        config.eval_subsample);
    result.end_time = sim.now();
    result.total_pushes = TotalPushes();
    result.total_aborts = trace.total_aborts();
    result.sim_events = sim.events_processed();
    result.convergence_time = convergence_time;
    result.convergence_pushes = convergence_pushes;
    if (scheduler) {
      result.scheduler_stats = scheduler->stats();
      result.final_params = scheduler->params();
    }
    result.fault_stats = faults.stats();
    // Workers still gated when time ran out were stalled to the very end.
    for (WorkerId w = 0; w < config.num_workers; ++w) ClearBlocked(w);
    result.consistency.blocks = gate_blocks;
    result.consistency.blocked_seconds = gate_blocked_seconds;
    if (dssp) result.consistency.retunes = dssp->retunes();
    if (controller) {
      result.consistency.final_staleness = controller->staleness();
    }
    trace.RecordLoss(sim.now(), result.final_loss, TotalPushes(),
                     GlobalEpoch());
    if (obs != nullptr) {
      obs->metrics.gauge("sim.events_processed")
          .Set(static_cast<double>(result.sim_events));
      obs->metrics.gauge("sim.end_time_s").Set(result.end_time.seconds());
      obs->metrics.gauge("sim.total_pushes")
          .Set(static_cast<double>(result.total_pushes));
      obs->metrics.gauge("sim.total_aborts")
          .Set(static_cast<double>(result.total_aborts));
      obs->metrics.gauge("sim.wasted_compute_s").Set(wasted_compute_seconds);
      obs->metrics.gauge("sim.final_loss").Set(result.final_loss);
      obs->metrics.gauge("sim.consistency_blocks")
          .Set(static_cast<double>(result.consistency.blocks));
      obs->metrics.gauge("sim.consistency_blocked_s")
          .Set(result.consistency.blocked_seconds);
      obs->metrics.gauge("sim.consistency_final_staleness")
          .Set(static_cast<double>(result.consistency.final_staleness));
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
