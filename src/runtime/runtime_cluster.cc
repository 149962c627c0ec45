#include "runtime/runtime_cluster.h"

#include <algorithm>
#include <queue>
#include <thread>
#include <variant>

#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/adaptive_tuner.h"
#include "data/sharding.h"
#include "models/chunk_merger.h"
#include "net/event_loop_server.h"
#include "net/shard_client.h"
#include "obs/obs.h"
#include "ps/consistency_gate.h"
#include "runtime/fault_mailbox.h"
#include "runtime/mailbox.h"
#include "runtime/wall_clock.h"

namespace specsync {

namespace {

// Messages workers send to the scheduler thread.
struct NotifyMsg {
  WorkerId worker;
  IterationId iteration;
};
struct PullMsg {
  WorkerId worker;
};
// Lifecycle events (reliable failure detection, sent via SendReliable).
struct WorkerDownMsg {
  WorkerId worker;
};
struct WorkerUpMsg {
  WorkerId worker;
};
using SchedulerMsg =
    std::variant<NotifyMsg, PullMsg, WorkerDownMsg, WorkerUpMsg>;

}  // namespace

struct RuntimeCluster::Impl {
  std::shared_ptr<const Model> model;
  std::shared_ptr<const LearningRateSchedule> schedule;
  RuntimeConfig config;

  std::unique_ptr<ParameterServer> server;
  // Shared pool for shard-concurrent pulls (null when shards or pull_threads
  // make the inline path the right one). Pull() scopes its wait with a latch,
  // so workers can fan out pulls through the same pool concurrently.
  std::unique_ptr<ThreadPool> pull_pool;
  // tcp_loopback transport: the store behind a loopback socket plus one
  // client per worker (empty clients vector = in-process direct calls).
  std::unique_ptr<net::EventLoopServer> shard_server;
  std::vector<std::unique_ptr<net::ShardClient>> shard_clients;
  WallClock clock;
  FaultPlan faults;
  FaultMailbox<SchedulerMsg> scheduler_mailbox;

  // Worker -> iteration index the scheduler wants aborted (-1 = none).
  std::vector<std::atomic<std::int64_t>> abort_target;
  std::vector<std::atomic<std::uint64_t>> completed;
  std::atomic<std::uint64_t> total_aborts{0};
  std::atomic<std::uint64_t> workers_killed{0};

  // Scheduler state (owned by the scheduler thread after Run() starts).
  std::unique_ptr<SpecSyncScheduler> scheduler;
  SchedulerStats final_stats;

  // Iteration-start gating (null under kAsp: no gate, no admission checks —
  // the pre-consistency loop). Typed views into the gated controller for
  // end-of-run stats; `runtime_dssp` implies `runtime_pssp`.
  std::unique_ptr<ConsistencyGate> gate;
  PerShardSspController* runtime_pssp = nullptr;
  DynamicSspController* runtime_dssp = nullptr;

  // Gradient wire codec (null = codec off, every path untouched). Transform
  // is safe for concurrent distinct workers — each worker thread only ever
  // touches its own error-feedback residual.
  std::unique_ptr<GradientCodec> codec;

  // Observability (null = off). Resolved once at construction; workers
  // record concurrently (SpanRecorder appends under its own mutex).
  obs::ObsContext* obs = nullptr;
  obs::Counter* pull_counter = nullptr;
  obs::Counter* push_counter = nullptr;
  obs::Counter* abort_counter = nullptr;
  obs::LatencyHistogram* iteration_hist = nullptr;

  Impl(std::shared_ptr<const Model> model_in,
       std::shared_ptr<const LearningRateSchedule> schedule_in,
       RuntimeConfig config_in)
      : model(std::move(model_in)),
        schedule(std::move(schedule_in)),
        config(std::move(config_in)),
        faults(config.faults),
        scheduler_mailbox(&faults, LinkClass::kControl),
        abort_target(config.num_workers),
        completed(config.num_workers) {
    SPECSYNC_CHECK(model != nullptr);
    SPECSYNC_CHECK(schedule != nullptr);
    SPECSYNC_CHECK_GT(config.num_workers, 0u);
    SPECSYNC_CHECK_GT(config.compute_chunks, 0u);
    SPECSYNC_CHECK_LE(config.compute_chunks, config.batch_size);
    for (const CrashEvent& event : config.faults.crashes) {
      SPECSYNC_CHECK_LT(event.worker, config.num_workers);
    }
    for (const SlowdownWindow& window : config.faults.slowdowns) {
      SPECSYNC_CHECK_LT(window.worker, config.num_workers);
    }
    for (auto& a : abort_target) a.store(-1, std::memory_order_relaxed);
    for (auto& c : completed) c.store(0, std::memory_order_relaxed);

    auto applier =
        std::make_shared<SgdApplier>(schedule, SgdConfig{config.sgd_clip});
    server = std::make_unique<ParameterServer>(
        model->param_dim(), config.num_servers, std::move(applier));
    Rng init_rng(config.seed);
    server->Initialize(*model, init_rng);

    if (config.compression.transforms_pushes()) {
      codec = std::make_unique<GradientCodec>(
          config.compression, config.num_workers,
          ParameterServer::ShardSplit(model->param_dim(),
                                      config.num_servers));
    }

    std::size_t pull_threads = config.pull_threads;
    if (pull_threads == 0) {
      pull_threads =
          std::min(config.num_servers, ThreadPool::DefaultThreadCount());
    }
    // Wire clients batch each server's shards into one pipelined request,
    // so only the in-process store fans pulls out over threads.
    if (pull_threads > 1 && config.num_servers > 1 &&
        config.transport != RuntimeTransport::kTcpLoopback) {
      pull_pool = std::make_unique<ThreadPool>(pull_threads);
    }

    if (config.transport == RuntimeTransport::kTcpLoopback) {
      obs::MetricsRegistry* metrics =
          config.obs != nullptr ? &config.obs->metrics : nullptr;
      obs::SpanRecorder* spans =
          config.obs != nullptr ? &config.obs->spans : nullptr;
      net::ShardServerConfig server_config;
      // Serve spans get their own tracks past the worker tracks and the
      // scheduler track (see the track naming in the obs block below).
      server_config.trace_track_base =
          static_cast<std::uint32_t>(config.num_workers) + 1;
      shard_server = std::make_unique<net::EventLoopServer>(
          server.get(), std::move(server_config), metrics, spans);
      SPECSYNC_CHECK(shard_server->Start())
          << "tcp_loopback transport: cannot start the shard server";
      net::ShardClientConfig client_config;
      client_config.request_timeout = config.net_timeout;
      client_config.max_attempts = config.net_attempts;
      client_config.compression = config.compression;
      const net::Endpoint endpoint{"127.0.0.1", shard_server->port()};
      for (std::size_t s = 0; s < server->num_shards(); ++s) {
        const ShardInfo info = server->shard(s);
        client_config.topology.shards.push_back(
            net::ShardPlacement{info.offset, info.length, endpoint});
      }
      for (WorkerId w = 0; w < config.num_workers; ++w) {
        // Client request spans share the worker's track, so wire activity
        // nests visually under the worker that caused it.
        client_config.trace_track = w;
        auto client = std::make_unique<net::ShardClient>(
            client_config, faults.enabled() ? &faults : nullptr, metrics,
            spans);
        SPECSYNC_CHECK(client->Connect())
            << "tcp_loopback transport: worker " << w << " cannot connect";
        shard_clients.push_back(std::move(client));
      }
    }

    if (config.consistency.scheme != RuntimeConsistency::kAsp) {
      const std::size_t shards = server->num_shards();
      std::unique_ptr<PerShardSspController> controller;
      switch (config.consistency.scheme) {
        case RuntimeConsistency::kBsp:
          controller = std::make_unique<PerShardSspController>(
              config.num_workers, shards, 0);
          break;
        case RuntimeConsistency::kSsp:
          controller = std::make_unique<PerShardSspController>(
              config.num_workers, shards, config.consistency.staleness);
          break;
        case RuntimeConsistency::kPssp:
          controller = std::make_unique<PerShardSspController>(
              config.num_workers, shards, config.consistency.staleness);
          break;
        case RuntimeConsistency::kDssp: {
          auto dynamic = std::make_unique<DynamicSspController>(
              config.num_workers, shards, config.consistency.dssp);
          runtime_dssp = dynamic.get();
          controller = std::move(dynamic);
          break;
        }
        case RuntimeConsistency::kAsp:
          break;  // unreachable
      }
      // kBsp / kSsp mean *global* bounds: freeze every write set to all
      // shards so the per-shard controller degenerates to exact SSP while
      // keeping its crash-excusal (see RuntimeConsistency).
      if (config.consistency.scheme == RuntimeConsistency::kBsp ||
          config.consistency.scheme == RuntimeConsistency::kSsp) {
        std::vector<std::size_t> all(shards);
        for (std::size_t s = 0; s < shards; ++s) all[s] = s;
        for (WorkerId w = 0; w < config.num_workers; ++w) {
          controller->SetWriteSet(w, all);
        }
      }
      runtime_pssp = controller.get();
      gate = std::make_unique<ConsistencyGate>(std::move(controller));
    }

    const bool speculation_on = config.adaptive || config.fixed_params.enabled();
    if (speculation_on) {
      SchedulerConfig sched_config;
      sched_config.num_workers = config.num_workers;
      sched_config.initial_params = config.fixed_params;
      sched_config.default_span = Duration::Milliseconds(10.0);
      std::unique_ptr<SpeculationPolicy> policy;
      if (config.adaptive) {
        policy = std::make_unique<AdaptiveTuner>();
      } else {
        policy = std::make_unique<FixedSpeculationPolicy>(config.fixed_params);
      }
      scheduler = std::make_unique<SpecSyncScheduler>(sched_config,
                                                      std::move(policy));
    }

    obs = config.obs;
    if (obs != nullptr) {
      pull_counter = &obs->metrics.counter("runtime.pulls");
      push_counter = &obs->metrics.counter("runtime.pushes");
      abort_counter = &obs->metrics.counter("runtime.aborts");
      iteration_hist = &obs->metrics.histogram("runtime.iteration_s");
      for (WorkerId w = 0; w < config.num_workers; ++w) {
        obs->spans.SetTrackName(w, "worker " + std::to_string(w));
      }
      const auto sched_track = static_cast<std::uint32_t>(config.num_workers);
      obs->spans.SetTrackName(sched_track, "scheduler");
      // Anchor span wall mapping on the run clock so client/server wire spans
      // (recorded against WallNanos) share the axis with worker spans
      // (recorded against clock.Now()). Overrides the fallback epoch the
      // transport constructors may have pinned moments earlier.
      obs->spans.SetWallEpochNanos(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              clock.start().time_since_epoch())
              .count()));
      if (config.transport == RuntimeTransport::kTcpLoopback) {
        for (std::size_t s = 0; s < server->num_shards(); ++s) {
          obs->spans.SetTrackName(
              sched_track + 1 + static_cast<std::uint32_t>(s),
              "server shard " + std::to_string(s));
        }
      }
      if (scheduler) scheduler->AttachObservability(obs, sched_track);
      // DecisionAuditLog is internally locked: DSSP retunes from worker
      // threads interleave safely with the scheduler thread's records.
      if (runtime_dssp) runtime_dssp->AttachAudit(&obs->audit);
      server->AttachMetrics(&obs->metrics);
    }
  }

  // Transport dispatch: direct store calls by default, per-worker wire
  // clients under tcp_loopback. The in-process path is untouched code, so
  // the default transport stays bit-identical to the pre-transport runtime.
  PullResult PullParams(WorkerId w) {
    if (shard_clients.empty()) return server->Pull(pull_pool.get());
    return shard_clients[w]->Pull();
  }

  // `routes` is RouteGradientInto(grad); the wire client routes by itself.
  void PushGradient(WorkerId w, const Gradient& grad, EpochId epoch,
                    std::span<const ParameterServer::ShardRoute> routes) {
    if (shard_clients.empty()) {
      server->Push(grad, epoch, routes);
    } else {
      shard_clients[w]->Push(grad, epoch);
    }
  }

  EpochId GlobalEpoch() const {
    std::uint64_t min_completed = completed[0].load(std::memory_order_relaxed);
    for (const auto& c : completed) {
      min_completed =
          std::min(min_completed, c.load(std::memory_order_relaxed));
    }
    return min_completed;
  }

  // --- scheduler thread -----------------------------------------------------

  void SchedulerLoop() {
    struct Timer {
      SimTime deadline;
      WorkerId worker;
      std::uint64_t token;
      IterationId iteration;
      bool operator>(const Timer& other) const {
        return deadline > other.deadline;
      }
    };
    std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers;

    for (;;) {
      // Fire due timers first.
      while (!timers.empty() && timers.top().deadline <= clock.Now()) {
        const Timer timer = timers.top();
        timers.pop();
        if (scheduler->HandleCheckTimer(timer.worker, timer.token,
                                        clock.Now())) {
          // "Send" the re-sync: target the iteration after the notify. The
          // re-sync rides the control link, so it too can be lost.
          const bool lost =
              faults.enabled() && faults.OnMessage(LinkClass::kControl).drop;
          if (!lost) {
            abort_target[timer.worker].store(
                static_cast<std::int64_t>(timer.iteration + 1),
                std::memory_order_release);
          }
        }
      }
      std::optional<SchedulerMsg> msg;
      if (timers.empty()) {
        msg = scheduler_mailbox.Receive();
      } else {
        msg = scheduler_mailbox.ReceiveUntil(
            clock.ToTimePoint(timers.top().deadline));
      }
      if (!msg.has_value()) {
        // drained(), not closed(): messages sent before Close() must still
        // be dispatched — the loop only ends once nothing can arrive again.
        if (scheduler_mailbox.drained()) break;
        continue;  // timer deadline reached (or spurious wake): fire timers
      }
      if (const auto* pull = std::get_if<PullMsg>(&*msg)) {
        scheduler->HandlePull(pull->worker, clock.Now());
        continue;
      }
      if (const auto* down = std::get_if<WorkerDownMsg>(&*msg)) {
        scheduler->OnWorkerDown(down->worker, clock.Now());
        continue;
      }
      if (const auto* up = std::get_if<WorkerUpMsg>(&*msg)) {
        scheduler->OnWorkerUp(up->worker, clock.Now());
        continue;
      }
      const auto& notify = std::get<NotifyMsg>(*msg);
      auto request = scheduler->HandleNotify(notify.worker, notify.iteration,
                                             clock.Now());
      if (request.has_value()) {
        timers.push(Timer{clock.Now() + request->delay, notify.worker,
                          request->token, notify.iteration});
      }
    }
    final_stats = scheduler->stats();
  }

  // --- worker threads --------------------------------------------------------

  void WorkerLoop(WorkerId w, std::vector<std::size_t> shard) {
    Rng rng(config.seed * 7919 + w + 1);
    BatchSampler sampler(std::move(shard), config.batch_size, rng.Fork());
    const std::size_t chunk_size =
        std::max<std::size_t>(1, config.batch_size / config.compute_chunks);

    // Injected crash: honored at iteration start and chunk boundaries (like
    // aborts, an in-flight chunk always completes). One lifecycle event per
    // worker; the down/up messages ride the reliable failure-detection path.
    const CrashEvent* crash = faults.CrashFor(w);
    bool crash_pending = crash != nullptr;
    const auto crash_due = [&] {
      return crash_pending && clock.Now() >= crash->at;
    };
    // Returns true when the death is permanent (worker thread exits).
    const auto handle_crash = [&] {
      crash_pending = false;
      faults.CountCrash();
      // Excuse this worker from the consistency minimum before going dark,
      // or every SSP-gated peer deadlocks on the corpse (the runtime has no
      // virtual-time budget to run out — see RuntimeConsistency).
      if (gate) gate->OnWorkerDown(w);
      if (scheduler) {
        // The mailbox closes only after all workers have joined, so a failed
        // send here means a shutdown-ordering bug — fail loudly, not by
        // silently losing a lifecycle event the scheduler depends on.
        SPECSYNC_CHECK(
            scheduler_mailbox.SendReliable(SchedulerMsg{WorkerDownMsg{w}}))
            << "worker " << w << ": scheduler mailbox closed before join";
      }
      if (!crash->rejoin.has_value()) {
        workers_killed.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      std::this_thread::sleep_until(clock.ToTimePoint(*crash->rejoin));
      faults.CountRejoin();
      if (gate) gate->OnWorkerUp(w);
      if (scheduler) {
        SPECSYNC_CHECK(
            scheduler_mailbox.SendReliable(SchedulerMsg{WorkerUpMsg{w}}))
            << "worker " << w << ": scheduler mailbox closed before join";
      }
      return false;  // in-flight work is discarded; re-pull and restart
    };

    // Push buffers reused by every iteration: with obs and the codec off,
    // the push span (merge, route, store, gate) allocates nothing once the
    // first push has sized them.
    std::vector<Gradient> chunks;
    ChunkMerger merger(model->param_dim());
    Gradient merged;
    std::vector<ParameterServer::ShardRoute> routes;
    std::vector<std::size_t> touched;
    touched.reserve(server->num_shards());  // a push may touch every shard

    for (IterationId iteration = 0; iteration < config.iterations_per_worker;
         ++iteration) {
      bool pushed = false;
      while (!pushed) {
        if (crash_due() && handle_crash()) return;
        if (gate) {
          // Block until the bound admits this iteration. Re-entry after an
          // abort or rejoin re-checks; admission is monotone in peers'
          // progress, so a re-check of an admitted iteration is cheap (DSSP
          // may have tightened the bound meanwhile, which legally re-blocks).
          const SimTime gate_begin = obs != nullptr ? clock.Now() : SimTime();
          if (!gate->WaitToStart(w, iteration)) return;  // shutdown
          if (obs != nullptr) {
            const SimTime gate_end = clock.Now();
            if (gate_end > gate_begin) {
              obs->spans.AddSpan("gated", "consistency", w, gate_begin,
                                 gate_end,
                                 {{"iteration", std::to_string(iteration)}});
            }
          }
          if (crash_due() && handle_crash()) return;  // crash fired mid-wait
        }
        obs::ScopedTimer iteration_timer(iteration_hist);
        // Shard pulls fan out across the shared pool (a real worker requests
        // every server concurrently and resumes when the slowest responds).
        const SimTime pull_begin = obs != nullptr ? clock.Now() : SimTime();
        PullResult snapshot = PullParams(w);
        if (obs != nullptr) {
          pull_counter->Increment();
          obs->spans.AddSpan("pull", "pull", w, pull_begin, clock.Now(),
                             {{"version", std::to_string(snapshot.version)}});
        }
        if (scheduler) {
          // Send() may drop/delay under fault injection but only returns
          // false on a closed mailbox, which cannot happen before join.
          SPECSYNC_CHECK(scheduler_mailbox.Send(SchedulerMsg{PullMsg{w}}))
              << "worker " << w << ": scheduler mailbox closed before join";
        }

        const SimTime compute_begin = obs != nullptr ? clock.Now() : SimTime();
        const std::vector<std::size_t> batch = sampler.NextBatch();
        chunks.clear();
        bool aborted = false;
        bool crashed = false;
        for (std::size_t begin = 0; begin < batch.size();
             begin += chunk_size) {
          const std::size_t end = std::min(begin + chunk_size, batch.size());
          std::span<const std::size_t> chunk(batch.data() + begin,
                                             end - begin);
          Gradient grad;
          model->LossAndGradient(snapshot.params, chunk, grad);
          chunks.push_back(std::move(grad));
          if (config.chunk_delay.count() > 0) {
            // Injected slowdown stretches the artificial per-chunk delay.
            const double factor = faults.SlowdownFactor(w, clock.Now());
            if (factor != 1.0) {
              std::this_thread::sleep_for(
                  std::chrono::duration_cast<std::chrono::microseconds>(
                      config.chunk_delay * factor));
            } else {
              std::this_thread::sleep_for(config.chunk_delay);
            }
          }
          if (crash_due()) {
            crashed = true;
            break;
          }
          // Honor a re-sync aimed at this iteration (abort-and-refresh).
          std::int64_t expected = static_cast<std::int64_t>(iteration);
          if (abort_target[w].compare_exchange_strong(
                  expected, -1, std::memory_order_acq_rel)) {
            aborted = true;
            total_aborts.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        if (crashed) {
          if (handle_crash()) return;
          continue;  // rejoined: discard the iteration and re-pull
        }
        if (aborted) {
          if (obs != nullptr) {
            abort_counter->Increment();
            obs->spans.AddSpan("aborted_compute", "abort", w, compute_begin,
                               clock.Now(),
                               {{"iteration", std::to_string(iteration)}});
          }
          continue;  // re-pull fresher parameters and start over
        }
        if (obs != nullptr) {
          obs->spans.AddSpan("compute", "compute", w, compute_begin,
                             clock.Now(),
                             {{"iteration", std::to_string(iteration)}});
        }

        // The push span covers the whole commit and nests one sub-span per
        // step: push.merge (chunk merge plus codec), push.store (route,
        // apply, commit), push.gate (consistency bookkeeping, gated runs
        // only) and push.notify (the scheduler message, speculative runs
        // only). Recording them is charged to the push span itself.
        const SimTime push_begin = obs != nullptr ? clock.Now() : SimTime();
        merger.Merge(chunks, merged);
        // Codec transform happens before BOTH the push and the gate's write
        // set below, so consistency tracking sees the gradient that actually
        // shipped (top-k may shrink the touched-shard set).
        if (codec) codec->Transform(w, merged);
        const SimTime merge_end = obs != nullptr ? clock.Now() : SimTime();
        // Route once: the store applies these routes and the gate takes its
        // write set from them (routing is a pure read of the static shard
        // table).
        server->RouteGradientInto(merged, routes);
        PushGradient(w, merged, GlobalEpoch(), routes);
        completed[w].fetch_add(1, std::memory_order_relaxed);
        const SimTime store_end = obs != nullptr ? clock.Now() : SimTime();
        if (gate) {
          touched.clear();
          for (const ParameterServer::ShardRoute& route : routes) {
            touched.push_back(route.shard);
          }
          gate->OnPush(w, iteration, clock.Now(), touched);
        }
        const SimTime gate_end = obs != nullptr ? clock.Now() : SimTime();
        if (scheduler) {
          SPECSYNC_CHECK(
              scheduler_mailbox.Send(SchedulerMsg{NotifyMsg{w, iteration}}))
              << "worker " << w << ": scheduler mailbox closed before join";
        }
        if (obs != nullptr) {
          const SimTime notify_end = clock.Now();
          obs->spans.AddSpan("push.merge", "push", w, push_begin, merge_end);
          obs->spans.AddSpan("push.store", "push", w, merge_end, store_end);
          if (gate) {
            obs->spans.AddSpan("push.gate", "push", w, store_end, gate_end);
          }
          if (scheduler) {
            obs->spans.AddSpan("push.notify", "push", w, gate_end,
                               notify_end);
          }
          obs->spans.AddInstant("notify", "control", w, gate_end,
                                {{"iteration", std::to_string(iteration)}});
          push_counter->Increment();
          obs->spans.AddSpan("push", "push", w, push_begin, clock.Now(),
                             {{"iteration", std::to_string(iteration)}});
        }
        pushed = true;
      }
    }
  }

  RuntimeResult Run() {
    const auto start = std::chrono::steady_clock::now();
    auto shards = ShardIndices(model->dataset_size(), config.num_workers);

    std::jthread scheduler_thread;
    if (scheduler) {
      scheduler_thread = std::jthread([this] { SchedulerLoop(); });
    }
    {
      std::vector<std::jthread> workers;
      workers.reserve(config.num_workers);
      for (WorkerId w = 0; w < config.num_workers; ++w) {
        workers.emplace_back(
            [this, w, shard = std::move(shards[w])]() mutable {
              WorkerLoop(w, std::move(shard));
            });
      }
    }  // join workers
    scheduler_mailbox.Close();
    if (scheduler_thread.joinable()) scheduler_thread.join();
    // Quiesce the wire before reading results: no in-flight push may race
    // the final snapshot. Clients disconnect first so the server's handler
    // threads see clean EOFs rather than resets.
    shard_clients.clear();
    if (shard_server) shard_server->Stop();

    RuntimeResult result;
    result.final_weights = server->Snapshot();
    if (config.final_eval) {
      result.final_loss =
          model->FullLoss(result.final_weights, config.final_eval_samples);
    }
    result.total_pushes = server->version();
    result.total_aborts = total_aborts.load(std::memory_order_relaxed);
    result.scheduler_stats = final_stats;
    result.fault_stats = faults.stats();
    result.workers_killed = workers_killed.load(std::memory_order_relaxed);
    if (gate) {
      result.consistency_blocks = gate->blocks();
      result.consistency_blocked_s = gate->blocked_wall_seconds();
      // Workers have joined: the controller is quiescent and safe to read.
      if (runtime_dssp) result.consistency_retunes = runtime_dssp->retunes();
      result.final_staleness = runtime_pssp->staleness();
    }
    result.elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    if (obs != nullptr) {
      obs->metrics.gauge("runtime.elapsed_s")
          .Set(static_cast<double>(result.elapsed.count()) / 1000.0);
      obs->metrics.gauge("runtime.total_pushes")
          .Set(static_cast<double>(result.total_pushes));
      obs->metrics.gauge("runtime.total_aborts")
          .Set(static_cast<double>(result.total_aborts));
      obs->metrics.gauge("runtime.final_loss").Set(result.final_loss);
      if (gate) {
        obs->metrics.gauge("runtime.consistency_blocks")
            .Set(static_cast<double>(result.consistency_blocks));
        obs->metrics.gauge("runtime.consistency_blocked_s")
            .Set(result.consistency_blocked_s);
        obs->metrics.gauge("runtime.consistency_final_staleness")
            .Set(static_cast<double>(result.final_staleness));
      }
    }
    return result;
  }
};

RuntimeCluster::RuntimeCluster(
    std::shared_ptr<const Model> model,
    std::shared_ptr<const LearningRateSchedule> schedule, RuntimeConfig config)
    : impl_(std::make_unique<Impl>(std::move(model), std::move(schedule),
                                   std::move(config))) {}

RuntimeCluster::~RuntimeCluster() = default;

RuntimeResult RuntimeCluster::Run() { return impl_->Run(); }

}  // namespace specsync
