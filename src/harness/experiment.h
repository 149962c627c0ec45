// Experiment driver: one (workload, cluster, scheme) combination -> SimResult
// plus the derived metrics the paper reports.
#pragma once

#include <optional>
#include <string>

#include "harness/workload.h"
#include "sim/cluster.h"

namespace specsync {

// The testbed timing no caller varies; the ClusterSpec switches turn each
// mechanism on or off.
//
// Log-normal sigma of per-iteration compute jitter. Homogeneous EC2 nodes
// doing identical work vary by a few percent iteration to iteration; the
// transient stragglers supply the heavy tail.
inline constexpr double kComputeJitterSigma = 0.08;
// A transient straggler's iteration runs this many times slower.
inline constexpr double kStragglerSlowdown = 3.0;
// Contention events and server stalls: mean gap between two and mean length
// of one, in units of the workload's iteration time so every workload sees
// comparable burstiness. A contention event's cohort and slowdown are
// ContentionConfig's defaults (sim/speed_model.h).
inline constexpr double kContentionGapIters = 5.0;
inline constexpr double kContentionDurationIters = 1.5;
inline constexpr double kStallGapIters = 3.0;
inline constexpr double kStallDurationIters = 0.4;

// Cluster shape, mirroring the paper's testbeds (Sec. VI-A).
struct ClusterSpec {
  std::size_t num_workers = 40;
  // Parameter-server shard count (paper-like default: 4 server processes).
  std::size_t num_servers = 4;
  // Per-class speed multipliers assigned round-robin; empty = homogeneous.
  // Cluster 2 (4 instance classes) uses {1.7, 0.9, 1.0, 0.5}-style factors.
  std::vector<double> class_multipliers;
  // Transient straggler injection (independent background load spikes): with
  // this probability an iteration runs kStragglerSlowdown times slower.
  double straggler_probability = 0.02;
  // Correlated contention events (noisy neighbors / congestion hitting a
  // cohort of nodes at once) — the source of the bursty push arrivals the
  // paper's Fig. 3 traces show.
  bool enable_contention = true;
  // Server-side stalls (incast congestion / pauses): deliveries queued during
  // a stall land in one batch when it ends — the burst source.
  bool enable_stalls = true;
  // Fault injection (message drop/duplication/delay, slowdown windows, worker
  // crashes), forwarded to ClusterSimConfig::faults. Disabled by default.
  FaultPlanConfig faults;

  static ClusterSpec Homogeneous(std::size_t num_workers) {
    ClusterSpec c;
    c.num_workers = num_workers;
    return c;
  }
  // The paper's Cluster 2: 4 instance generations/sizes, 10 nodes each.
  static ClusterSpec Heterogeneous(std::size_t num_workers) {
    ClusterSpec c;
    c.num_workers = num_workers;
    c.class_multipliers = {1.7, 0.9, 1.0, 0.5};
    return c;
  }
};

struct ExperimentConfig {
  ClusterSpec cluster;
  SchemeSpec scheme;
  SimTime max_time = SimTime::FromSeconds(20000.0);
  std::uint64_t max_pushes = 0;
  std::uint64_t seed = 7;
  bool stop_on_convergence = true;
  // Override the workload's loss target (<=0 keeps the workload's own).
  double loss_target_override = 0.0;
  // Optional observability context, forwarded to ClusterSimConfig::obs.
  obs::ObsContext* obs = nullptr;
  // Gradient wire compression, forwarded to ClusterSimConfig::compression.
  CompressionSpec compression;
};

struct ExperimentResult {
  std::string workload_name;
  std::string scheme_name;
  SimResult sim;
  // Runtime to convergence; nullopt when the target was never met.
  std::optional<Duration> time_to_target;
  std::optional<std::uint64_t> pushes_to_target;
  double final_loss = 0.0;
};

ExperimentResult RunExperiment(const Workload& workload,
                               const ExperimentConfig& config);

// Loss at or before `time` (last sample <= time); nullopt before first sample.
std::optional<double> LossAtTime(const TrainingTrace& trace, SimTime time);

}  // namespace specsync
