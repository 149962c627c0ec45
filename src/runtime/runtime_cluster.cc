#include "runtime/runtime_cluster.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "data/sharding.h"
#include "models/chunk_merger.h"
#include "net/event_loop_server.h"
#include "net/shard_client.h"
#include "obs/obs.h"
#include "protocol/worker_protocol.h"
#include "runtime/fault_mailbox.h"
#include "runtime/wall_clock.h"

namespace specsync {

struct RuntimeCluster::Impl {
  std::shared_ptr<const Model> model;
  RuntimeConfig config;

  WallClock clock;
  FaultPlan faults;
  WorkerProtocol protocol;  // the store, the gate, each worker's state
  // tcp_loopback transport: the store behind a loopback socket plus one
  // client per worker (empty clients vector = in-process direct calls).
  std::unique_ptr<net::EventLoopServer> shard_server;
  std::vector<std::unique_ptr<net::ShardClient>> shard_clients;
  // Worker -> scheduler thread (the scheduler side of the protocol).
  FaultMailbox<ControlMessage> scheduler_mailbox;

  // Observability (null = off) for what only the runtime records: the wall
  // time of each iteration attempt and the push's sub-steps.
  obs::ObsContext* obs = nullptr;
  obs::LatencyHistogram* iteration_hist = nullptr;

  Impl(std::shared_ptr<const Model> model_in,
       std::shared_ptr<const LearningRateSchedule> schedule_in,
       RuntimeConfig config_in)
      : model(std::move(model_in)),
        config(std::move(config_in)),
        faults(config.faults),
        protocol(model, schedule_in, ProtocolConfig(config), faults,
                 Rng(config.seed)),
        scheduler_mailbox(&faults, LinkClass::kControl) {
    SPECSYNC_CHECK_GT(config.compute_chunks, 0u);
    SPECSYNC_CHECK_LE(config.compute_chunks, config.batch_size);

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
          &protocol.store(), std::move(server_config), metrics, spans);
      SPECSYNC_CHECK(shard_server->Start())
          << "tcp_loopback transport: cannot start the shard server";
      net::ShardClientConfig client_config;
      client_config.request_timeout = config.net_timeout;
      client_config.max_attempts = config.net_attempts;
      client_config.compression = config.compression;
      client_config.topology = net::ClusterTopology::SingleServer(
          protocol.store().layout(),
          net::Endpoint{"127.0.0.1", shard_server->port()});
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

    obs = config.obs;
    if (obs != nullptr) {
      iteration_hist = &obs->metrics.histogram("runtime.iteration_s");
      // Anchor span wall mapping on the run clock so client/server wire spans
      // (recorded against WallNanos) share the axis with worker spans
      // (recorded against clock.Now()). Overrides the fallback epoch the
      // transport constructors may have pinned moments earlier.
      obs->spans.SetWallEpochNanos(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              clock.start().time_since_epoch())
              .count()));
      if (config.transport == RuntimeTransport::kTcpLoopback) {
        const auto sched_track = static_cast<std::uint32_t>(config.num_workers);
        for (std::size_t s = 0; s < protocol.store().num_shards(); ++s) {
          obs->spans.SetTrackName(
              sched_track + 1 + static_cast<std::uint32_t>(s),
              "server shard " + std::to_string(s));
        }
      }
    }
  }

  static WorkerProtocolConfig ProtocolConfig(const RuntimeConfig& config) {
    SchemeSpec scheme;
    scheme.consistency = config.consistency;
    // No caller sets both adaptive and fixed parameters.
    scheme.speculation = config.adaptive ? SpeculationMode::kAdaptive
                         : config.fixed_params.enabled()
                             ? SpeculationMode::kFixed
                             : SpeculationMode::kNone;
    scheme.fixed_params = config.fixed_params;
    return {.num_workers = config.num_workers,
            .num_servers = config.num_servers,
            .sgd_clip = config.sgd_clip,
            .scheme = scheme,
            .default_span = Duration::Milliseconds(10.0),
            .compression = config.compression,
            .obs = config.obs,
            .metric_prefix = "runtime"};
  }

  // Obs-only timestamps: reading the clock costs nothing when obs is off.
  SimTime Stamp() const { return obs != nullptr ? clock.Now() : SimTime(); }

  // Carries a worker's message to the scheduler thread: lossy for pulls and
  // notifies, reliable for down/up notices. The mailbox closes only after
  // every worker joined, so a failed send is a shutdown-ordering bug.
  void Post(const std::optional<ControlMessage>& message) {
    if (!message.has_value()) return;
    using Kind = ControlMessage::Kind;
    const bool lifecycle = message->kind == Kind::kWorkerDown ||
                           message->kind == Kind::kWorkerUp;
    const bool sent = lifecycle ? scheduler_mailbox.SendReliable(*message)
                                : scheduler_mailbox.Send(*message);
    SPECSYNC_CHECK(sent) << "worker " << message->worker
                         << ": scheduler mailbox closed before join";
  }

  // Transport dispatch: the in-process store pushes `routes` (the layout's
  // RouteInto(grad)) as they are; a wire client cuts its frames itself.
  // With `next_pull` set (wire clients only), the push's round trip also
  // pulls the snapshot the next iteration starts from, served after the
  // push applied. Returns the committed version.
  std::uint64_t PushGradient(WorkerId w, const Gradient& grad, EpochId epoch,
                             std::span<const ShardRoute> routes,
                             std::optional<PullResult>* next_pull) {
    if (shard_clients.empty()) {
      return protocol.store().Push(grad, epoch, routes);
    }
    if (next_pull == nullptr) return shard_clients[w]->Push(grad, epoch);
    net::ShardClient::PushPullResult result =
        shard_clients[w]->PushAndPull(grad, epoch);
    *next_pull = std::move(result.pull);
    return result.version;
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
        if (protocol.ReSyncDue(timer.worker, timer.token, clock.Now())) {
          // "Send" the re-sync. It rides the control link, so it too can be
          // lost.
          const bool lost =
              faults.enabled() && faults.OnMessage(LinkClass::kControl).drop;
          if (!lost) protocol.PostReSync(timer.worker, timer.iteration);
        }
      }
      std::optional<ControlMessage> message;
      if (timers.empty()) {
        message = scheduler_mailbox.Receive();
      } else {
        message = scheduler_mailbox.ReceiveUntil(
            clock.ToTimePoint(timers.top().deadline));
      }
      if (!message.has_value()) {
        // drained(), not merely closed: messages sent before Close() must
        // still be dispatched — the loop only ends once nothing can arrive
        // again.
        if (scheduler_mailbox.drained()) break;
        continue;  // timer deadline reached (or spurious wake): fire timers
      }
      const SimTime now = clock.Now();
      if (const auto request = protocol.Deliver(*message, now)) {
        timers.push(Timer{now + request->delay, message->worker,
                          request->token, message->iteration});
      }
    }
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
    const bool fuse_pull = !shard_clients.empty() && !protocol.gated();
    std::optional<PullResult> prefetched;

    // Injected crash: honored at iteration start, in the gate, and at chunk
    // boundaries (like aborts, an in-flight chunk always completes). One
    // crash event per worker.
    const CrashEvent* crash = faults.CrashFor(w);
    bool crash_pending = crash != nullptr;
    const auto crash_due = [&] {
      return crash_pending && clock.Now() >= crash->at;
    };
    // A gated worker waits no longer than its crash.
    const auto gate_deadline = [&] {
      return crash_pending ? clock.ToTimePoint(crash->at)
                           : std::chrono::steady_clock::time_point::max();
    };
    // Goes down; sleeps until the rejoin, if there is one. Returns true when
    // the death is permanent (the worker thread exits). In-flight work is
    // discarded: a rejoined worker re-pulls and restarts.
    const auto go_down = [&] {
      crash_pending = false;
      prefetched.reset();
      Post(protocol.Crash(w, clock.Now()));
      if (!crash->rejoin.has_value()) return true;
      std::this_thread::sleep_until(clock.ToTimePoint(*crash->rejoin));
      Post(protocol.Rejoin(w));
      return false;
    };

    // Pull, compute and push buffers reused by every iteration: with obs and
    // the codec off, the in-process pull, the chunk gradients and the push
    // span (merge, route, store, gate) allocate nothing once the first
    // iteration has sized them.
    PullResult snapshot;
    std::vector<Gradient> chunks;
    ChunkMerger merger(model->param_dim());
    Gradient merged;
    PushPlan plan;
    plan.write_set.reserve(protocol.store().num_shards());  // may touch all

    while (protocol.completed(w) < config.iterations_per_worker) {
      const IterationId iteration = protocol.completed(w);
      if (crash_due()) {
        if (go_down()) return;
        continue;
      }
      // Block until the bound admits this iteration. Re-entry after an
      // abort or rejoin re-checks; admission is monotone in peers'
      // progress, so a re-check of an admitted iteration is cheap (DSSP may
      // have tightened the bound meanwhile, which legally re-blocks).
      bool admitted;
      while (!(admitted = protocol.Admit(w, clock.Now())) &&
             protocol.AwaitAdmission(w, gate_deadline())) {
      }
      if (!admitted) continue;  // a crash fell due in the gate
      obs::ScopedTimer iteration_timer(iteration_hist);
      // A snapshot the last push prefetched is this pull, already done. The
      // in-process pull copies every shard into the reused snapshot on this
      // thread: a few microseconds, far less than a hand-off to others.
      const SimTime pull_begin = Stamp();
      if (prefetched.has_value()) {
        snapshot = std::move(*prefetched);
        prefetched.reset();
      } else if (shard_clients.empty()) {
        protocol.store().PullInto(&snapshot);
      } else {
        snapshot = shard_clients[w]->Pull();
      }
      Post(protocol.RecordPull(w, pull_begin, clock.Now(), snapshot.version));

      const std::vector<std::size_t> batch = sampler.NextBatch();
      std::size_t num_chunks = 0;
      bool interrupted = false;
      for (std::size_t begin = 0; begin < batch.size(); begin += chunk_size) {
        const std::size_t end = std::min(begin + chunk_size, batch.size());
        std::span<const std::size_t> chunk(batch.data() + begin, end - begin);
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
        // A crash, or a re-sync aimed at this iteration (abort-and-refresh).
        if (crash_due() || protocol.TakeReSync(w, clock.Now()).has_value()) {
          interrupted = true;
          break;
        }
      }
      if (interrupted) continue;  // crash at the loop top, or re-pull
      protocol.EndCompute(w, clock.Now());

      // The push span covers the whole commit and nests one sub-span per
      // step: push.merge (chunk merge plus codec), push.store (route,
      // apply, commit; a fused wire push also carries the next pull's
      // round trip here), push.gate (consistency bookkeeping, gated runs
      // only) and push.notify (the scheduler message, speculative runs
      // only). Recording them is charged to the push span itself.
      const SimTime push_begin = Stamp();
      merger.Merge(std::span<const Gradient>(chunks).first(num_chunks),
                   merged);
      // The in-process store applies the routes as they are; a wire client
      // cuts its frames itself, so only the gate's write set needs them.
      protocol.PrepareCommit(w, merged, plan,
                             /*route=*/shard_clients.empty());
      const SimTime merge_end = Stamp();
      const bool last = iteration + 1 == config.iterations_per_worker;
      const std::uint64_t version =
          PushGradient(w, merged, protocol.GlobalEpoch(), plan.routes,
                       fuse_pull && !last ? &prefetched : nullptr);
      const SimTime store_end = Stamp();
      protocol.Commit(w, clock.Now(), plan.write_set, /*landed=*/true);
      const SimTime gate_end = Stamp();
      Post(protocol.Notify(w, iteration, gate_end));
      if (obs != nullptr) {
        obs->spans.AddSpan("push.merge", "push", w, push_begin, merge_end);
        obs->spans.AddSpan("push.store", "push", w, merge_end, store_end);
        if (protocol.gated()) {
          obs->spans.AddSpan("push.gate", "push", w, store_end, gate_end);
        }
        if (protocol.scheduler() != nullptr) {
          obs->spans.AddSpan("push.notify", "push", w, gate_end, clock.Now());
        }
      }
      protocol.RecordPush(w, push_begin, Stamp(), iteration, version);
    }
  }

  RuntimeResult Run() {
    const auto start = std::chrono::steady_clock::now();
    auto shards = ShardIndices(model->dataset_size(), config.num_workers);

    std::jthread scheduler_thread;
    if (protocol.scheduler() != nullptr) {
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
    result.final_weights = protocol.store().Snapshot();
    if (config.final_eval) {
      result.final_loss =
          model->FullLoss(result.final_weights, config.final_eval_samples);
    }
    result.total_pushes = protocol.store().version();
    result.total_aborts = protocol.aborts();
    if (const SpecSyncScheduler* scheduler = protocol.scheduler()) {
      result.scheduler_stats = scheduler->stats();
    }
    result.fault_stats = faults.stats();
    // Every crash without a rejoin is a death; every other one rejoined.
    result.workers_killed =
        result.fault_stats.crashes - result.fault_stats.rejoins;
    // Workers have joined: the controller is quiescent and safe to read.
    const ConsistencyStats consistency = protocol.Finish(clock.Now());
    result.consistency_blocks = consistency.blocks;
    result.consistency_blocked_s = consistency.blocked_seconds;
    result.consistency_retunes = consistency.retunes;
    result.final_staleness = consistency.final_staleness;
    result.elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    protocol.PublishGauges(consistency, result.total_pushes,
                           result.final_loss);
    if (obs != nullptr) {
      obs->metrics.gauge("runtime.elapsed_s")
          .Set(static_cast<double>(result.elapsed.count()) / 1000.0);
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
