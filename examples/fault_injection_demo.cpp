// Fault-injection demo: the same SpecSync experiment healthy and under chaos.
//
// Part 1 runs the discrete-event simulator twice with one seed — once on a
// clean cluster and once with a lossy network, a mid-run slowdown, and a
// worker crash+rejoin — and prints how the protocol copes (epochs keep
// closing, duplicate notifies are deduped, the dead worker is excused).
// Part 2 repeats the exercise on real threads: a lossy control plane plus a
// permanently killed worker, with training still finishing.
//
// Run: ./build/examples/fault_injection_demo
#include <iostream>

#include "common/table.h"
#include "data/synthetic.h"
#include "models/softmax_regression.h"
#include "runtime/runtime_cluster.h"
#include "sim/cluster.h"

using namespace specsync;

namespace {

std::shared_ptr<const Model> MakeModel(std::uint64_t seed,
                                       std::size_t examples) {
  Rng rng(seed);
  ClassificationSpec spec;
  spec.num_examples = examples;
  spec.feature_dim = 16;
  spec.num_classes = 4;
  auto data = std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
  return std::make_shared<SoftmaxRegressionModel>(std::move(data),
                                                  SoftmaxRegressionConfig{});
}

SimResult RunSim(const FaultPlanConfig& faults) {
  ClusterSimConfig config;
  config.num_workers = 4;
  config.num_servers = 2;
  config.batch_size = 16;
  config.eval_interval = Duration::Seconds(5.0);
  config.eval_subsample = 200;
  config.max_time = SimTime::FromSeconds(180.0);
  config.seed = 7;
  SpeculationParams params;
  params.abort_time = Duration::Seconds(0.5);
  params.abort_rate = 0.5;
  config.scheme = SchemeSpec::Cherrypick(params);
  config.faults = faults;
  ClusterSim sim(MakeModel(7, 600), std::make_shared<ConstantSchedule>(0.2),
                 SpeedModel::Homogeneous(Duration::Seconds(1.0),
                                         config.num_workers, 0.1),
                 config);
  return sim.Run();
}

void AddSimRow(Table& table, const char* name, const SimResult& r) {
  table.AddRowValues(name, r.total_pushes, r.total_aborts,
                     r.fault_stats.drops, r.fault_stats.duplicates,
                     r.scheduler_stats.duplicate_notifies,
                     r.scheduler_stats.lost_worker_epochs_unblocked,
                     r.final_loss);
}

}  // namespace

int main() {
  std::cout << "=== Part 1: discrete-event simulation, seed 7 ===\n\n";

  const SimResult healthy = RunSim(FaultPlanConfig{});

  FaultPlanConfig chaos;
  chaos.data.drop_probability = 0.05;       // lost gradient pushes
  chaos.data.duplicate_probability = 0.05;  // double-applied gradients
  chaos.control.drop_probability = 0.10;    // lost notify / re-sync
  chaos.control.duplicate_probability = 0.15;
  chaos.control.delay_probability = 0.2;
  chaos.control.delay_mean = Duration::Milliseconds(20.0);
  chaos.slowdowns.push_back(
      SlowdownWindow{1, SimTime::FromSeconds(20.0),
                     SimTime::FromSeconds(60.0), 3.0});
  chaos.crashes.push_back(CrashEvent{2, SimTime::FromSeconds(40.0),
                                     SimTime::FromSeconds(100.0)});
  const SimResult faulty = RunSim(chaos);

  Table sim_table({"cluster", "pushes", "aborts", "msg_drops", "msg_dups",
                   "dup_notifies", "epochs_unblocked", "final_loss"});
  AddSimRow(sim_table, "healthy", healthy);
  AddSimRow(sim_table, "chaos", faulty);
  sim_table.PrintPretty(std::cout);

  std::cout << "\nWith all-zero fault probabilities the healthy row is"
               " bit-identical to a\nbuild without the fault subsystem;"
               " the chaos run is itself deterministic\n(same seed, same"
               " trace) because every fault decision comes from the\n"
               "plan's own forked RNG streams.\n\n";

  std::cout << "=== Part 2: real threads, lossy control plane ===\n\n";

  RuntimeConfig config;
  config.num_workers = 4;
  config.iterations_per_worker = 40;
  config.batch_size = 32;
  config.compute_chunks = 8;
  config.chunk_delay = std::chrono::microseconds(300);
  config.fixed_params.abort_time = Duration::Milliseconds(1.0);
  config.fixed_params.abort_rate = 0.25;
  config.faults.control.drop_probability = 0.10;
  config.faults.control.duplicate_probability = 0.10;
  config.faults.control.delay_probability = 0.2;
  config.faults.control.delay_mean = Duration::Milliseconds(1.0);
  // Worker 3 dies 30 ms in and never comes back.
  config.faults.crashes.push_back(
      CrashEvent{3, SimTime::FromSeconds(0.03), std::nullopt});
  RuntimeCluster cluster(MakeModel(21, 1200),
                         std::make_shared<ConstantSchedule>(0.2), config);
  const RuntimeResult result = cluster.Run();

  Table rt_table({"pushes", "aborts", "killed", "msg_drops", "dup_notifies",
                  "departures", "epochs_unblocked", "final_loss", "wall_ms"});
  rt_table.AddRowValues(result.total_pushes, result.total_aborts,
                        result.workers_killed, result.fault_stats.drops,
                        result.scheduler_stats.duplicate_notifies,
                        result.scheduler_stats.worker_departures,
                        result.scheduler_stats.lost_worker_epochs_unblocked,
                        result.final_loss,
                        static_cast<long long>(result.elapsed.count()));
  rt_table.PrintPretty(std::cout);

  std::cout << "\nThe three survivors finished their full quota: the"
               " scheduler excused the\ndead worker from epoch accounting"
               " instead of waiting for it forever.\n";
  return 0;
}
