#include "runtime/runtime_cluster.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <thread>
#include <variant>

#include "common/check.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/adaptive_tuner.h"
#include "data/sharding.h"
#include "models/chunk_merger.h"
#include "net/event_loop_server.h"
#include "net/shard_client.h"
#include "obs/obs.h"
#include "ps/consistency_gate.h"
#include "runtime/fault_mailbox.h"
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
  // Set while the worker is crashed (GlobalEpoch skips it).
  std::vector<std::atomic<bool>> down;
  std::atomic<std::uint64_t> total_aborts{0};
  std::atomic<std::uint64_t> workers_killed{0};

  // Scheduler state (owned by the scheduler thread after Run() starts).
  std::unique_ptr<SpecSyncScheduler> scheduler;
  SchedulerStats final_stats;

  // Iteration-start gating (null under ASP: no gate, no admission checks —
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
        completed(config.num_workers),
        down(config.num_workers) {
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
    for (auto& d : down) d.store(false, std::memory_order_relaxed);

    auto applier =
        std::make_shared<SgdApplier>(schedule, SgdConfig{config.sgd_clip});
    server = std::make_unique<ParameterServer>(
        model->param_dim(), config.num_servers, std::move(applier));
    Rng init_rng(config.seed);
    server->Initialize(*model, init_rng);

    if (config.compression.transforms_pushes()) {
      codec = std::make_unique<GradientCodec>(
          config.compression, config.num_workers, server->layout());
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
      client_config.topology = net::ClusterTopology::SingleServer(
          server->layout(), net::Endpoint{"127.0.0.1", shard_server->port()});
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

    if (auto controller = MakeConsistencyController(
            config.consistency, config.num_workers, server->num_shards())) {
      runtime_pssp = controller.get();
      runtime_dssp = dynamic_cast<DynamicSspController*>(runtime_pssp);
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
  // clients under tcp_loopback. The in-process pull copies every shard into
  // the worker's reused snapshot on the worker thread itself; a copy is a
  // few microseconds, far less than handing shards to other threads.
  void PullParams(WorkerId w, PullResult* snapshot) {
    if (shard_clients.empty()) {
      server->PullInto(snapshot);
    } else {
      *snapshot = shard_clients[w]->Pull();
    }
  }

  // `routes` is the store layout's RouteInto(grad); the in-process store
  // pushes them as they are, while a wire client cuts its frames from the
  // same layout itself. With `next_pull` set (wire clients only), the
  // push's round trip also pulls the snapshot the next iteration starts
  // from, served after the push applied.
  void PushGradient(WorkerId w, const Gradient& grad, EpochId epoch,
                    std::span<const ShardRoute> routes,
                    std::optional<PullResult>* next_pull) {
    if (shard_clients.empty()) {
      server->Push(grad, epoch, routes);
    } else if (next_pull != nullptr) {
      *next_pull = std::move(shard_clients[w]->PushAndPull(grad, epoch).pull);
    } else {
      shard_clients[w]->Push(grad, epoch);
    }
  }

  // Global epoch for the learning-rate schedule: completed iterations of the
  // slowest *live* worker, as in the simulator. A crashed worker must not pin
  // the learning rate; if every worker is down, fall back to the overall
  // minimum.
  EpochId GlobalEpoch() const {
    std::optional<std::uint64_t> min_live;
    std::uint64_t min_all = completed[0].load(std::memory_order_relaxed);
    for (WorkerId w = 0; w < config.num_workers; ++w) {
      const std::uint64_t c = completed[w].load(std::memory_order_relaxed);
      min_all = std::min(min_all, c);
      if (down[w].load(std::memory_order_relaxed)) continue;
      min_live = min_live.has_value() ? std::min(*min_live, c) : c;
    }
    return min_live.value_or(min_all);
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

    // Over the wire with no gate, each push but the last also fetches the
    // next iteration's snapshot in the same round trip (the pull needs no
    // admission, so nothing has to happen between the two). An abort or a
    // crash rejoin discards it: those re-pull fresher parameters.
    const bool fuse_pull = !shard_clients.empty() && !gate;
    std::optional<PullResult> prefetched;

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
      prefetched.reset();
      faults.CountCrash();
      down[w].store(true, std::memory_order_relaxed);
      // Excuse this worker from the consistency minimum before going dark,
      // or every SSP-gated peer deadlocks on the corpse.
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
      down[w].store(false, std::memory_order_relaxed);
      if (gate) gate->OnWorkerUp(w);
      if (scheduler) {
        SPECSYNC_CHECK(
            scheduler_mailbox.SendReliable(SchedulerMsg{WorkerUpMsg{w}}))
            << "worker " << w << ": scheduler mailbox closed before join";
      }
      return false;  // in-flight work is discarded; re-pull and restart
    };

    // Pull, compute and push buffers reused by every iteration: with obs and
    // the codec off, the in-process pull, the chunk gradients and the push
    // span (merge, route, store, gate) allocate nothing once the first
    // iteration has sized them.
    PullResult snapshot;
    std::vector<Gradient> chunks;
    ChunkMerger merger(model->param_dim());
    Gradient merged;
    std::vector<ShardRoute> routes;
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
        // A snapshot the last push prefetched is this pull, already done.
        const SimTime pull_begin = obs != nullptr ? clock.Now() : SimTime();
        if (prefetched.has_value()) {
          snapshot = std::move(*prefetched);
          prefetched.reset();
        } else {
          PullParams(w, &snapshot);
        }
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
        std::size_t num_chunks = 0;
        bool aborted = false;
        bool crashed = false;
        for (std::size_t begin = 0; begin < batch.size();
             begin += chunk_size) {
          const std::size_t end = std::min(begin + chunk_size, batch.size());
          std::span<const std::size_t> chunk(batch.data() + begin,
                                             end - begin);
          if (chunks.size() == num_chunks) chunks.emplace_back();
          model->LossAndGradient(snapshot.params, chunk, chunks[num_chunks++]);
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
        // apply, commit; a fused wire push also carries the next pull's
        // round trip here), push.gate (consistency bookkeeping, gated runs
        // only) and push.notify (the scheduler message, speculative runs
        // only). Recording them is charged to the push span itself.
        const SimTime push_begin = obs != nullptr ? clock.Now() : SimTime();
        merger.Merge(std::span<const Gradient>(chunks).first(num_chunks),
                     merged);
        // Codec transform happens before BOTH the push and the gate's write
        // set below, so consistency tracking sees the gradient that actually
        // shipped (top-k may shrink the touched-shard set).
        if (codec) codec->Transform(w, merged);
        const SimTime merge_end = obs != nullptr ? clock.Now() : SimTime();
        // Route once: the in-process store applies these routes and the gate
        // takes its write set from them (routing is a pure read of the
        // static shard table). A wire push with no gate reads neither.
        if (shard_clients.empty() || gate) {
          server->layout().RouteInto(merged, routes);
        }
        const bool last = iteration + 1 == config.iterations_per_worker;
        PushGradient(w, merged, GlobalEpoch(), routes,
                     fuse_pull && !last ? &prefetched : nullptr);
        completed[w].fetch_add(1, std::memory_order_relaxed);
        const SimTime store_end = obs != nullptr ? clock.Now() : SimTime();
        if (gate) {
          touched.clear();
          for (const ShardRoute& route : routes) {
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
