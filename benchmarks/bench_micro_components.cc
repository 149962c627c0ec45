// Microbenchmarks (google-benchmark): event-queue throughput, parameter-server
// push/pull, gradient kernels (MLP and MF), the runtime's chunked MF batch
// sum and sparse store push, and the O(m^3) adaptive tuner.
#include <benchmark/benchmark.h>

#include <numeric>

#include "core/adaptive_tuner.h"
#include "data/synthetic.h"
#include "harness/workload.h"
#include "models/mlp.h"
#include "net/event_loop_server.h"
#include "net/shard_client.h"
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

// One 200-rating MF batch computed as a runtime worker computes it: four
// 50-rating chunk calls add into one open sum, whose close emits the batch's
// rows once, at weight 1/4.
constexpr std::size_t kChunks = 4;
constexpr std::size_t kChunkSize = 50;

struct MfBatch {
  std::vector<double> params;
  std::vector<std::size_t> batch;
};

MfBatch MakeMfBatch(const Workload& mf) {
  Rng rng(1);
  MfBatch b;
  b.params.resize(mf.model->param_dim());
  mf.model->InitParams(b.params, rng);
  b.batch = rng.SampleIndices(mf.model->dataset_size(), kChunks * kChunkSize);
  return b;
}

void SumChunks(const Workload& mf, const MfBatch& b, SumWorkspace& workspace,
               Gradient& grad) {
  grad.OpenSum(workspace);
  for (std::size_t c = 0; c < kChunks; ++c) {
    mf.model->LossAndGradient(
        b.params, std::span(b.batch).subspan(c * kChunkSize, kChunkSize),
        grad);
  }
  grad.CloseSum(1.0 / kChunks);
}

// The batch's summed gradient, what the runtime pushes.
Gradient MfBatchGradient(const Workload& mf) {
  SumWorkspace workspace;
  Gradient grad;
  SumChunks(mf, MakeMfBatch(mf), workspace, grad);
  return grad;
}

// The runtime's whole chunked compute of one batch, into one reused
// workspace and gradient: four chunk calls and the close.
void BM_MfChunkedGradient(benchmark::State& state) {
  const Workload mf = MakeMfWorkload(/*seed=*/1);
  const MfBatch b = MakeMfBatch(mf);
  SumWorkspace workspace;
  Gradient grad;
  for (auto _ : state) {
    SumChunks(mf, b, workspace, grad);
    benchmark::DoNotOptimize(grad.sparse().values().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks * kChunkSize));
}
BENCHMARK(BM_MfChunkedGradient);

// The in-process store's apply: the batch's gradient pushed over the
// mf-inproc-ssp store's 4 shards with the routes already cut, then its
// negation, so the parameters stay bounded. Items are applied entries.
void BM_StorePushSparse(benchmark::State& state) {
  const Workload mf = MakeMfWorkload(/*seed=*/1);
  const Gradient grad = MfBatchGradient(mf);
  Gradient negated = grad;
  negated.sparse().ScaleValues(-1.0);
  ParameterServer server(
      mf.model->param_dim(), 4,
      std::make_shared<SgdApplier>(std::make_shared<ConstantSchedule>(0.1)));
  std::vector<ShardRoute> routes;
  server.layout().RouteInto(grad, routes);
  for (auto _ : state) {
    benchmark::DoNotOptimize(server.Push(grad, 0, routes));
    benchmark::DoNotOptimize(server.Push(negated, 0, routes));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(grad.sparse().nnz()));
}
BENCHMARK(BM_StorePushSparse);

// One fused TCP exchange (ShardClient::PushAndPull) on the mf-tcp store
// shape: the summed 200-rating MF gradient pushed to one EventLoopServer
// over loopback serving 4 shards, then its negation (so the parameters stay
// bounded), each answered with a full pull into one reused snapshot. Items
// are exchanges; bytes are both answers' pulled doubles.
void BM_TcpPushPull(benchmark::State& state) {
  const Workload mf = MakeMfWorkload(/*seed=*/1);
  const Gradient grad = MfBatchGradient(mf);
  Gradient negated = grad;
  negated.sparse().ScaleValues(-1.0);
  ParameterServer store(
      mf.model->param_dim(), 4,
      std::make_shared<SgdApplier>(std::make_shared<ConstantSchedule>(0.1)));
  net::EventLoopServer server(&store, net::ShardServerConfig{});
  if (!server.Start()) {
    state.SkipWithError("cannot bind a loopback port");
    return;
  }
  net::ShardClientConfig config;
  for (std::size_t s = 0; s < store.num_shards(); ++s) {
    const ShardInfo info = store.shard(s);
    config.topology.shards.push_back(net::ShardPlacement{
        info.offset, info.length, net::Endpoint{"127.0.0.1", server.port()}});
  }
  net::ShardClient client(config);
  if (!client.Connect()) {
    state.SkipWithError("cannot connect to the loopback server");
    return;
  }
  PullResult snapshot;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.PushAndPull(grad, 0, snapshot));
    benchmark::DoNotOptimize(client.PushAndPull(negated, 0, snapshot));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          static_cast<std::int64_t>(store.dim() *
                                                    sizeof(double)));
}
BENCHMARK(BM_TcpPushPull);

void RunTunerRetune(benchmark::State& state, const TuningInputs& inputs) {
  AdaptiveTuner tuner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tuner.OnEpochEnd(inputs));
  }
}

// Algorithm 1 enumerates O(m^2) candidate deltas. One push per worker, every
// pull at 0 and every span 1 s.
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
  RunTunerRetune(state, inputs);
}
BENCHMARK(BM_AdaptiveTunerRetune)->Arg(10)->Arg(20)->Arg(40)->Arg(80);

// An epoch as the engines retune it: range(1) pushes by range(0) workers in
// round-robin order at exponential gaps (the epoch lasts ~1 s), every span
// half the epoch, and each worker's last pull uniform in the epoch's last
// span (the iteration it was running when the epoch ended). /2/3 is the
// runtime's 2-worker epoch; /40/80 is sim-mf-adaptive's (~2,300 candidates).
void BM_AdaptiveTunerRetuneStaggered(benchmark::State& state) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  const auto pushes = static_cast<std::size_t>(state.range(1));
  TuningInputs inputs;
  inputs.num_workers = workers;
  Rng rng(3);
  SimTime t = SimTime::Zero();
  for (std::size_t i = 0; i < pushes; ++i) {
    t += Duration::Seconds(rng.Exponential(static_cast<double>(pushes)));
    inputs.pushes.emplace_back(t, static_cast<WorkerId>(i % workers));
  }
  const Duration span = (t - SimTime::Zero()) / 2.0;
  inputs.iteration_span.assign(workers, span);
  inputs.last_pull.resize(workers);
  for (auto& pull : inputs.last_pull) {
    pull = t - span * rng.Uniform(0.0, 1.0);
  }
  RunTunerRetune(state, inputs);
}
BENCHMARK(BM_AdaptiveTunerRetuneStaggered)->Args({2, 3})->Args({40, 80});

}  // namespace
}  // namespace specsync

BENCHMARK_MAIN();
