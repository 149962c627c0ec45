// Threaded in-process cluster: the SpecSync protocol under real concurrency.
//
// The discrete-event simulator (src/sim) drives the experiments; this runtime
// exists to demonstrate the identical scheduler logic working in a real
// system: worker threads genuinely compute gradients, a scheduler thread
// handles notify messages and arms wall-clock speculation timers, and aborts
// interrupt in-flight computation between batch chunks. Time is wall time
// mapped onto SimTime, so SpecSyncScheduler is reused verbatim.
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

// Consistency model gating worker iteration starts (mirrors the sim's
// BaseScheme). kAsp installs no gate at all — the pre-consistency runtime
// loop, bit-identical by construction. The SSP-family schemes wrap a
// controller in a ConsistencyGate: worker threads block in WaitToStart until
// the bound admits their next iteration.
//
// Unlike the sim (whose static SSP keeps the pinned legacy no-crash-handling
// behavior and simply runs out its virtual-time budget when a corpse pins the
// minimum), the runtime has no clock to run out — a deadlocked gate hangs the
// process. All runtime SSP-family schemes therefore run on the per-shard
// controller, which excuses crashed workers from the progress minimum:
// kBsp / kSsp use write sets frozen to every shard (dense per-shard SSP is
// exactly global SSP, see PerShardSspController), kPssp learns write sets
// from observed pushes, kDssp additionally retunes the bound each epoch.
enum class RuntimeConsistency { kAsp, kBsp, kSsp, kPssp, kDssp };

struct RuntimeConsistencyConfig {
  RuntimeConsistency scheme = RuntimeConsistency::kAsp;
  std::uint64_t staleness = 3;  // kSsp / kPssp
  DynamicSspConfig dssp;        // kDssp
};

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
  // Iteration-start gating (default: ungated ASP, the original loop).
  RuntimeConsistencyConfig consistency;
  // Threads used to pull shards concurrently (one in-process pool shared by
  // all workers). 0 = auto: min(num_servers, hardware threads). 1 = pull
  // shards inline on the worker thread. Unused under tcp_loopback, where
  // each pull is one batched request per server.
  std::size_t pull_threads = 0;
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
  // Fault injection: control-link faults apply to the scheduler mailbox and
  // re-sync delivery, slowdown windows scale chunk_delay, and crash events
  // kill (and optionally rejoin) worker threads. Default = disabled, which
  // leaves the runtime's behavior untouched.
  FaultPlanConfig faults;
  // Optional observability context (src/obs), not owned; must outlive the
  // cluster. Worker threads record pull/compute/push/abort spans on the
  // wall-clock SimTime axis, the scheduler thread records its decision audit,
  // and the parameter store its lock/latency histograms.
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
  // Consistency-gate telemetry (all zero under kAsp): block transitions,
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
