#include "harness/experiment.h"

#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace specsync {

namespace {

std::unique_ptr<SpeedModel> MakeSpeedModel(const Workload& workload,
                                           const ClusterSpec& cluster,
                                           std::uint64_t seed) {
  std::unique_ptr<SpeedModel> base;
  if (cluster.class_multipliers.empty()) {
    base = std::make_unique<HomogeneousSpeedModel>(
        workload.iteration_time, cluster.compute_jitter_sigma);
  } else {
    base = HeterogeneousSpeedModel::EvenClasses(
        workload.iteration_time, cluster.num_workers,
        cluster.class_multipliers, cluster.compute_jitter_sigma);
  }
  if (cluster.straggler_probability > 0.0) {
    base = std::make_unique<StragglerInjectingSpeedModel>(
        std::move(base), cluster.straggler_probability,
        cluster.straggler_slowdown);
  }
  if (cluster.enable_contention) {
    ContentionConfig contention;
    contention.mean_gap = workload.iteration_time * cluster.contention_gap_iters;
    contention.mean_duration =
        workload.iteration_time * cluster.contention_duration_iters;
    contention.cohort_fraction = cluster.contention_cohort_fraction;
    contention.slowdown = cluster.contention_slowdown;
    base = std::make_unique<ContentionSpeedModel>(std::move(base), contention,
                                                  Rng(seed ^ 0xC047E47u));
  }
  return base;
}

}  // namespace

ExperimentResult RunExperiment(const Workload& workload,
                               const ExperimentConfig& config) {
  ClusterSimConfig sim_config;
  sim_config.num_workers = config.cluster.num_workers;
  sim_config.num_servers = config.cluster.num_servers;
  sim_config.batch_size = workload.batch_size;
  sim_config.scheme = config.scheme;
  sim_config.eval_interval = workload.eval_interval;
  sim_config.eval_subsample = workload.eval_subsample;
  sim_config.loss_target = config.loss_target_override > 0.0
                               ? config.loss_target_override
                               : workload.loss_target;
  sim_config.stop_on_convergence = config.stop_on_convergence;
  sim_config.max_time = config.max_time;
  sim_config.max_pushes = config.max_pushes;
  sim_config.seed = config.seed;
  sim_config.sgd_clip = workload.sgd_clip;
  sim_config.obs = config.obs;
  sim_config.compression = config.compression;
  if (config.cluster.enable_stalls) {
    sim_config.stalls.enabled = true;
    sim_config.stalls.mean_gap =
        workload.iteration_time * config.cluster.stall_gap_iters;
    sim_config.stalls.mean_duration =
        workload.iteration_time * config.cluster.stall_duration_iters;
  }
  sim_config.faults = config.cluster.faults;

  ClusterSim sim(workload.model, workload.schedule,
                 MakeSpeedModel(workload, config.cluster, config.seed),
                 sim_config);
  ExperimentResult result;
  result.workload_name = workload.name;
  result.scheme_name = config.scheme.DisplayName();
  result.sim = sim.Run();
  result.final_loss = result.sim.final_loss;
  if (result.sim.convergence_time.has_value()) {
    result.time_to_target =
        *result.sim.convergence_time - SimTime::Zero();
    result.pushes_to_target = result.sim.convergence_pushes;
  }
  return result;
}

std::optional<double> LossAtTime(const TrainingTrace& trace, SimTime time) {
  std::optional<double> loss;
  for (const LossSample& sample : trace.losses()) {
    if (sample.time > time) break;
    loss = sample.loss;
  }
  return loss;
}

std::optional<SimTime> TimeToTarget(const TrainingTrace& trace, double target,
                                    std::size_t patience) {
  SPECSYNC_CHECK_GT(patience, 0u);
  std::size_t streak = 0;
  SimTime streak_start = SimTime::Zero();
  for (const LossSample& sample : trace.losses()) {
    if (sample.loss < target) {
      if (streak == 0) streak_start = sample.time;
      ++streak;
      if (streak >= patience) return streak_start;
    } else {
      streak = 0;
    }
  }
  return std::nullopt;
}

}  // namespace specsync
