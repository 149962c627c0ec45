// Threaded in-process cluster: the SpecSync protocol under real concurrency.
//
// The discrete-event simulator (src/sim) drives the experiments; this runtime
// runs the same worker protocol (protocol/worker_protocol.h) in a real
// system. The protocol makes every decision (gating, commits, re-sync
// aborts, crash and rejoin); the runtime decides when each step runs and how
// its bytes move: worker threads compute gradients chunk by chunk and honour
// re-syncs and crashes at chunk boundaries, wait in the gate no longer than
// a crash falling due, and reach the store directly or over a ShardClient.
// No thread serves the scheduler: each worker delivers its own control
// messages (through a fault-injecting outbox) and fires its own speculation
// checks at its chunk boundaries. Time is wall time mapped onto SimTime, so
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
#include "ps/compression.h"
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
  // The mini-batch is split into this many chunks; abort requests are honored
  // at chunk boundaries (an in-flight chunk always completes).
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
  // tcp_loopback only: per-request response deadline and total attempts
  // before a shard is declared unreachable (which fails the run loudly).
  std::chrono::milliseconds net_timeout{250};
  std::size_t net_attempts = 16;
  // Gradient wire compression (ps/compression.h). topk/int8/fp16 transform
  // each worker's merged gradient (with per-worker error-feedback residuals
  // for topk) before it is pushed — on both transports, so in-process and
  // tcp_loopback stay bit-identical per the codec's determinism contract.
  // delta additionally makes tcp_loopback pulls conditional. kNone leaves
  // every path byte-for-byte untouched.
  CompressionSpec compression;
  // End-of-run evaluation: final_eval=false skips FullLoss entirely
  // (RuntimeResult::final_loss stays 0 — transport benches that only care
  // about wire behavior can spend nothing here); otherwise
  // final_eval_samples examples are evaluated (0 = the full dataset).
  bool final_eval = true;
  std::size_t final_eval_samples = 2000;
  // Fault injection: control-link faults apply to each worker's outbox and
  // to re-sync delivery, slowdown windows scale chunk_delay, and crash events
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
