// Cluster training simulation: PS architecture + synchronization scheme +
// SpecSync, under virtual time.
//
// "Virtual time, real math": event timing (compute spans, transfer delays)
// is simulated, but every gradient is genuinely computed on the parameter
// snapshot the worker pulled — so staleness has its true algorithmic effect
// on convergence, which is precisely what the paper measures.
//
// The simulator is one of the two executors of the worker protocol
// (protocol/worker_protocol.h), which makes every protocol decision: gating,
// commits, re-sync aborts, crash and rejoin. The simulator decides when each
// step runs (events on the virtual clock, naive-waiting delays) and how its
// bytes move (NetworkModel fan-out per shard, drops, duplicates, stalls,
// delta pulls and the transfer ledger).
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/scheduler.h"
#include "data/sharding.h"
#include "fault/fault_plan.h"
#include "models/model.h"
#include "optim/lr_schedule.h"
#include "protocol/worker_protocol.h"
#include "ps/compression.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/speed_model.h"
#include "trace/trace.h"
#include "trace/transfer.h"

namespace specsync {

struct ClusterSimConfig {
  std::size_t num_workers = 4;
  std::size_t num_servers = 1;
  std::size_t batch_size = 32;
  SchemeSpec scheme;
  NetworkConfig network;
  StallConfig stalls;
  // Fault injection (message drop/duplication/delay, slowdowns, crashes).
  // Default-constructed = disabled; with all-zero probabilities and no
  // crash/slowdown events the run is bit-identical to a fault-free one.
  FaultPlanConfig faults;
  // Virtual-time cadence of loss evaluation (server-side snapshot).
  Duration eval_interval = Duration::Seconds(5.0);
  // Examples used per loss evaluation (0 = full dataset).
  std::size_t eval_subsample = 2000;
  // Convergence: loss < loss_target for `convergence_patience` consecutive
  // evaluations (paper Sec. VI-B, with iterations ~ evaluations). <= 0
  // disables convergence stopping.
  double loss_target = 0.0;
  std::size_t convergence_patience = 5;
  bool stop_on_convergence = true;
  SimTime max_time = SimTime::FromSeconds(3600.0);
  std::uint64_t max_pushes = 0;  // 0 = unlimited
  std::uint64_t seed = 42;
  // Elementwise gradient clip applied server-side (0 = off).
  double sgd_clip = 0.0;
  // Gradient wire compression (ps/compression.h). topk/int8/fp16 transform
  // each worker's gradient before routing (error-feedback residuals for
  // topk) and the transfer model charges the coded byte size, with the raw
  // minus coded delta recorded in the TransferAccountant's savings ledger.
  // delta makes unchanged shards cost one control message per pull. kNone
  // takes exactly the legacy paths: no transform, no extra RNG draws, and
  // bit-identical golden trace digests.
  CompressionSpec compression;
  // Optional observability context (src/obs), not owned; must outlive the
  // sim. When set, the run records per-worker spans (pull/compute/push/
  // aborted compute), scheduler audit records, and event counters/gauges.
  // Record-only: attaching it never changes event order, RNG draws, or the
  // trace digest.
  obs::ObsContext* obs = nullptr;
};

struct SimResult {
  TrainingTrace trace;
  TransferAccountant transfers;
  SchedulerStats scheduler_stats;
  // Time of the first loss sample of the convergence streak, if converged.
  std::optional<SimTime> convergence_time;
  std::optional<std::uint64_t> convergence_pushes;
  double final_loss = 0.0;
  SimTime end_time = SimTime::Zero();
  std::uint64_t total_pushes = 0;
  std::uint64_t total_aborts = 0;
  // DES events the run processed (queue throughput = sim_events / wall time).
  std::uint64_t sim_events = 0;
  SpeculationParams final_params;
  DenseVector final_weights;
  FaultStats fault_stats;
  ConsistencyStats consistency;

  SimResult() : trace(1) {}
};

// Runs one full training simulation. The model and schedule are shared
// (immutable); the speed model is owned for the run.
class ClusterSim {
 public:
  ClusterSim(std::shared_ptr<const Model> model,
             std::shared_ptr<const LearningRateSchedule> schedule,
             std::unique_ptr<SpeedModel> speed, ClusterSimConfig config);
  ~ClusterSim();

  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  SimResult Run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace specsync
