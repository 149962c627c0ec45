// Threaded in-process cluster: the SpecSync protocol under real concurrency.
//
// The discrete-event simulator (src/sim) drives the experiments; this runtime
// runs the same worker protocol (protocol/worker_protocol.h) and WorkerStep
// (protocol/worker_step.h) in a real system. Each worker thread drives its
// step with compute_chunks chunks and keeps only what is its own: the
// in-process store or a ShardClient with its fused prefetch, re-syncs and
// crashes honoured at chunk boundaries, a gate wait no longer than a crash
// falling due, and the push's sub-spans. No thread serves the scheduler:
// each worker hands it its pull, down and up notices directly, delivers its
// notifies through a fault-injecting outbox, and fires its own speculation
// checks at its poll points. Time is wall time mapped onto SimTime, so
// SpecSyncScheduler is reused verbatim.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <vector>

#include "core/scheduler.h"
#include "core/speculation.h"
#include "fault/fault_plan.h"
#include "models/model.h"
#include "net/endpoint.h"
#include "optim/lr_schedule.h"
#include "ps/consistency.h"
#include "ps/param_store.h"

namespace specsync {

// How workers reach the parameter store.
//   kInProcess   — direct calls into the shared ParameterServer (the
//                  pre-transport behavior, bit-identical by construction).
//   kTcpLoopback — the store sits behind a net::EventLoopServer on
//                  127.0.0.1 and every worker gets its own net::ShardClient:
//                  pulls and pushes pay real serialization and kernel round
//                  trips, and data-link fault injection (drop / delay /
//                  duplicate) happens on the wire with timeout + bounded
//                  retry.
enum class RuntimeTransport { kInProcess, kTcpLoopback };

// Exists only because benchmarks/e2e/e2e_bench.cc spells it; the scheme is a
// ConsistencyScheme (ps/consistency.h).
using RuntimeConsistency = ConsistencyScheme;

struct RuntimeConfig {
  std::size_t num_workers = 4;
  std::size_t iterations_per_worker = 20;
  std::size_t batch_size = 32;
  // The mini-batch is split into exactly this many chunks, whose sizes
  // differ by at most one; abort requests are honored at chunk boundaries
  // (an in-flight chunk always completes).
  std::size_t compute_chunks = 4;
  // Optional artificial per-chunk delay to stretch iterations so speculation
  // windows are meaningful on small machines.
  std::chrono::microseconds chunk_delay{0};
  // Speculation setup: fixed parameters (enabled() == false disables
  // speculation entirely) or adaptive tuning.
  bool adaptive = false;
  SpeculationParams fixed_params;
  std::size_t num_servers = 4;
  // Iteration-start gating (default: ungated ASP, the original loop). Under
  // every other scheme worker threads block at the protocol's gate until the
  // bound admits their next iteration, and a crashed worker is excused.
  ConsistencySpec consistency;
  double sgd_clip = 0.0;
  std::uint64_t seed = 123;
  RuntimeTransport transport = RuntimeTransport::kInProcess;
  // Exists only because benchmarks/e2e/e2e_bench.cc sets it; nothing reads it.
  net::ServerModel server_model = net::ServerModel::kEventLoop;
  // End-of-run evaluation: final_eval=false skips FullLoss entirely
  // (RuntimeResult::final_loss stays 0 — transport benches that only care
  // about wire behavior can spend nothing here); otherwise the loss is
  // evaluated over the first 2000 examples.
  bool final_eval = true;
  // Fault injection: control-link faults apply to notifies (each worker's
  // outbox) and re-syncs, slowdown windows scale chunk_delay, and crash events
  // kill (and optionally rejoin) worker threads. Default = disabled, which
  // leaves the runtime's behavior untouched.
  FaultPlanConfig faults;
  // Optional observability context (src/obs), not owned; must outlive the
  // cluster. Worker threads record pull/compute/push/abort spans on the
  // wall-clock SimTime axis and, through their scheduler calls, its decision
  // audit; the parameter store records its lock/latency histograms.
  obs::ObsContext* obs = nullptr;
};

struct RuntimeResult {
  double final_loss = 0.0;
  std::uint64_t total_pushes = 0;
  std::uint64_t total_aborts = 0;
  SchedulerStats scheduler_stats;
  std::chrono::milliseconds elapsed{0};
  DenseVector final_weights;
  FaultStats fault_stats;
  // Workers that died permanently (crash with no rejoin).
  std::uint64_t workers_killed = 0;
  // The protocol's ConsistencyStats (all zero under ASP): block transitions,
  // wall time worker threads spent blocked, DSSP bound adjustments, and the
  // bound in force at run end.
  std::uint64_t consistency_blocks = 0;
  double consistency_blocked_s = 0.0;
  std::uint64_t consistency_retunes = 0;
  std::uint64_t final_staleness = 0;
};

class RuntimeCluster {
 public:
  RuntimeCluster(std::shared_ptr<const Model> model,
                 std::shared_ptr<const LearningRateSchedule> schedule,
                 RuntimeConfig config);
  ~RuntimeCluster();

  RuntimeCluster(const RuntimeCluster&) = delete;
  RuntimeCluster& operator=(const RuntimeCluster&) = delete;

  // Runs the full training to completion (blocking).
  RuntimeResult Run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace specsync
