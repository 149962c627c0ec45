#include "harness/experiment.h"

#include <utility>

#include "common/check.h"
#include "common/rng.h"

namespace specsync {

namespace {

SpeedModel MakeSpeedModel(const Workload& workload, const ClusterSpec& cluster,
                          std::uint64_t seed) {
  SpeedModel speed =
      cluster.class_multipliers.empty()
          ? SpeedModel::Homogeneous(workload.iteration_time,
                                    cluster.num_workers, kComputeJitterSigma)
          : SpeedModel::EvenClasses(workload.iteration_time,
                                    cluster.num_workers,
                                    cluster.class_multipliers,
                                    kComputeJitterSigma);
  speed.SetStragglers(cluster.straggler_probability, kStragglerSlowdown);
  if (cluster.enable_contention) {
    speed.SetContention(
        {.mean_gap = workload.iteration_time * kContentionGapIters,
         .mean_duration = workload.iteration_time * kContentionDurationIters},
        Rng(seed ^ 0xC047E47u));
  }
  return speed;
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
    sim_config.stalls.mean_gap = workload.iteration_time * kStallGapIters;
    sim_config.stalls.mean_duration =
        workload.iteration_time * kStallDurationIters;
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

}  // namespace specsync
