#include "runtime/runtime_cluster.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

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
  std::mutex scheduler_mutex;  // every worker's Deliver and ReSyncDue calls

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
                 Rng(config.seed)) {
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

    // No scheduler thread: this worker's messages ride its own outbox (lossy
    // for pulls and notifies, reliable for down/up notices), which it
    // delivers itself right after each send and at each poll point, and it
    // fires the check its last delivered notify armed.
    FaultMailbox<ControlMessage> outbox(&faults, LinkClass::kControl);
    struct PendingCheck {
      std::uint64_t token;
      SimTime deadline;
      IterationId iteration;  // the notified one; the window covers the next
    };
    std::optional<PendingCheck> check;
    // Stamps each ready message with its delivery time, read under the lock:
    // the scheduler's ledgers need monotone times. A notify's check replaces
    // the pending one, so a check not yet due never reaches the scheduler.
    const auto drain = [&] {
      while (const auto message =
                 outbox.ReceiveUntil(std::chrono::steady_clock::now())) {
        std::scoped_lock lock(scheduler_mutex);
        const SimTime now = clock.Now();
        if (const auto request = protocol.Deliver(*message, now)) {
          check = PendingCheck{request->token, now + request->delay,
                               message->iteration};
        }
      }
    };
    // The outbox closes only when this worker exits, after its last send.
    const auto post = [&](const std::optional<ControlMessage>& message) {
      if (!message.has_value()) return;
      using Kind = ControlMessage::Kind;
      const bool lifecycle = message->kind == Kind::kWorkerDown ||
                             message->kind == Kind::kWorkerUp;
      SPECSYNC_CHECK(lifecycle ? outbox.SendReliable(*message)
                               : outbox.Send(*message));
      drain();
    };
    // A poll point fires a check whose deadline passed, as of the deadline:
    // HandleCheckTimer clamps its window there, so it counts the pushes an
    // exact timer would.
    const auto poll = [&] {
      drain();
      if (!check.has_value() || clock.Now() < check->deadline) return;
      const PendingCheck due = *std::exchange(check, std::nullopt);
      std::unique_lock lock(scheduler_mutex);
      const bool resync = protocol.ReSyncDue(w, due.token, due.deadline);
      lock.unlock();
      // The re-sync rides the control link, so it too can be lost.
      if (resync &&
          !(faults.enabled() && faults.OnMessage(LinkClass::kControl).drop)) {
        protocol.PostReSync(w, due.iteration);
      }
    };

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
      post(protocol.Crash(w, clock.Now()));
      if (!crash->rejoin.has_value()) return true;
      std::this_thread::sleep_until(clock.ToTimePoint(*crash->rejoin));
      post(protocol.Rejoin(w));
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
        if (go_down()) break;
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
      poll();  // a check due by now is moot: RecordPull drops its re-sync
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
      post(protocol.RecordPull(w, pull_begin, clock.Now(), snapshot.version));

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
        // A crash, or a re-sync aimed at this iteration (abort-and-refresh):
        // a check due by now aborts at this, the first boundary after it.
        poll();
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
      // only) and push.notify (delivering the notify to the scheduler,
      // speculative runs only). Recording them is charged to the push span.
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
      poll();  // before the notify supersedes a due check
      post(protocol.Notify(w, iteration, gate_end));
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
    // Quota met, or dead for good: delayed messages go out now (closing
    // makes them ready). A check still pending has nothing left to abort.
    outbox.Close();
    drain();
  }

  RuntimeResult Run() {
    const auto start = std::chrono::steady_clock::now();
    auto shards = ShardIndices(model->dataset_size(), config.num_workers);

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
