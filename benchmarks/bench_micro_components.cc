// Microbenchmarks (google-benchmark): event-queue throughput, parameter-server
// push/pull, gradient kernels (MLP and MF), and the O(m^3) adaptive tuner.
#include <benchmark/benchmark.h>

#include <numeric>

#include "core/adaptive_tuner.h"
#include "data/synthetic.h"
#include "harness/workload.h"
#include "models/mlp.h"
#include "ps/param_store.h"
#include "sim/simulator.h"

namespace specsync {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    std::uint64_t fired = 0;
    for (std::size_t i = 0; i < events; ++i) {
      sim.ScheduleAt(SimTime::FromSeconds(static_cast<double>(i % 97)),
                     [&fired] { ++fired; });
    }
    sim.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

// One dense push, then one pull into a buffer reused across iterations, the
// way both engines refill each worker's snapshot. Args: {dim, shards}; the
// {8000, 4} case is the mf-inproc-ssp store's shape.
void BM_ParamServerPushPull(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  auto applier =
      std::make_shared<SgdApplier>(std::make_shared<ConstantSchedule>(0.1));
  ParameterServer server(dim, shards, applier);
  Gradient grad = Gradient::Dense(dim);
  for (std::size_t i = 0; i < dim; ++i) grad.dense()[i] = 0.001;
  PullResult snapshot;
  for (auto _ : state) {
    server.Push(grad, 0);
    server.PullInto(&snapshot);
    benchmark::DoNotOptimize(snapshot.params.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dim) * 16);
}
BENCHMARK(BM_ParamServerPushPull)
    ->Args({1024, 8})
    ->Args({16384, 8})
    ->Args({262144, 8})
    ->Args({8000, 4});

void BM_MlpGradient(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  ClassificationSpec spec;
  spec.num_examples = 512;
  spec.feature_dim = 48;
  spec.num_classes = 10;
  auto data = std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
  MlpClassifierModel model(data, {.hidden = {48}});
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);
  std::vector<std::size_t> batch(batch_size);
  std::iota(batch.begin(), batch.end(), 0u);
  Gradient grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.LossAndGradient(params, batch, grad));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_MlpGradient)->Arg(16)->Arg(64)->Arg(128);

// The MF workload's sparse gradient at batch 50 (one runtime chunk) and
// batch 200 (one simulator batch), into one reused output.
void BM_MfGradient(benchmark::State& state) {
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const Workload mf = MakeMfWorkload(/*seed=*/1);
  Rng rng(1);
  std::vector<double> params(mf.model->param_dim());
  mf.model->InitParams(params, rng);
  const std::vector<std::size_t> batch =
      rng.SampleIndices(mf.model->dataset_size(), batch_size);
  Gradient grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mf.model->LossAndGradient(params, batch, grad));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_MfGradient)->Arg(50)->Arg(200);

// The same kernel as the simulator sees it: every call reads a batch it has
// not read recently and one of 40 parameter copies (the 40 workers'
// snapshots of sim-mf-adaptive, 64 KB each), so the ratings and rows it
// touches are mostly out of L1 and L2: the snapshots alone are 2.5 MB. The
// batches are drawn up front, outside the timing, and a batch comes round
// again only after 511 others.
void BM_MfGradientCold(benchmark::State& state) {
  constexpr std::size_t kSnapshots = 40;
  constexpr std::size_t kBatches = 512;
  const auto batch_size = static_cast<std::size_t>(state.range(0));
  const Workload mf = MakeMfWorkload(/*seed=*/1);
  Rng rng(1);
  std::vector<std::vector<double>> snapshots(kSnapshots);
  for (std::vector<double>& params : snapshots) {
    params.resize(mf.model->param_dim());
    mf.model->InitParams(params, rng);
  }
  std::vector<std::vector<std::size_t>> batches(kBatches);
  for (std::vector<std::size_t>& batch : batches) {
    batch = rng.SampleIndices(mf.model->dataset_size(), batch_size);
  }
  Gradient grad;
  std::size_t call = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mf.model->LossAndGradient(
        snapshots[call % kSnapshots], batches[call % kBatches], grad));
    ++call;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch_size));
}
BENCHMARK(BM_MfGradientCold)->Arg(50)->Arg(200);

// Algorithm 1 is O(m^3): candidate deltas O(m^2) x evaluation O(m).
void BM_AdaptiveTunerRetune(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  TuningInputs inputs;
  inputs.num_workers = m;
  Rng rng(2);
  SimTime t = SimTime::Zero();
  for (std::size_t i = 0; i < m; ++i) {
    t += Duration::Seconds(rng.Exponential(static_cast<double>(m)));
    inputs.pushes.emplace_back(t, static_cast<WorkerId>(i));
  }
  inputs.last_pull.assign(m, SimTime::Zero());
  inputs.iteration_span.assign(m, Duration::Seconds(1.0));
  AdaptiveTuner tuner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.OnEpochEnd(inputs));
  }
  state.SetComplexityN(static_cast<std::int64_t>(m));
}
BENCHMARK(BM_AdaptiveTunerRetune)
    ->Arg(10)
    ->Arg(20)
    ->Arg(40)
    ->Arg(80)
    ->Complexity(benchmark::oNCubed);

}  // namespace
}  // namespace specsync

BENCHMARK_MAIN();
