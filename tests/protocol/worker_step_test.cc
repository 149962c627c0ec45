// The one batch-draw rule of WorkerStep, in both engines: a batch is drawn
// at its first use and released when the computation it feeds ends, so an
// aborted attempt's chunks are a prefix of the batch the worker's next
// completed computation uses, and completed computations consume the
// worker's sampler draws in order. A recording model sees every gradient
// call; its batch contents are replayed against each worker's sampler. And
// every push the runtime lands is its batch's one-call gradient on its
// snapshot times 1 / compute_chunks, bit for bit, however often the batch's
// attempts were aborted.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/sharding.h"
#include "data/synthetic.h"
#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "models/matrix_factorization.h"
#include "models/softmax_regression.h"
#include "optim/sgd.h"
#include "protocol/worker_step.h"
#include "runtime/runtime_cluster.h"

namespace specsync {
namespace {

// Forwards to a real model and records the batch of every gradient call.
class RecordingModel final : public Model {
 public:
  explicit RecordingModel(std::shared_ptr<const Model> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::size_t param_dim() const override { return inner_->param_dim(); }
  std::size_t dataset_size() const override { return inner_->dataset_size(); }
  void InitParams(std::span<double> params, Rng& rng) const override {
    inner_->InitParams(params, rng);
  }
  double LossAndGradient(std::span<const double> params,
                         std::span<const std::size_t> batch,
                         Gradient& grad) const override {
    {
      std::scoped_lock lock(mutex_);
      calls_.emplace_back(batch.begin(), batch.end());
    }
    return inner_->LossAndGradient(params, batch, grad);
  }
  double Loss(std::span<const double> params,
              std::span<const std::size_t> batch) const override {
    return inner_->Loss(params, batch);
  }

  // Worker w's calls in its order: ShardIndices deals example i to worker
  // i % num_workers, and one thread at a time drives a worker.
  std::vector<std::vector<std::size_t>> CallsOf(WorkerId w,
                                                std::size_t num_workers) const {
    std::scoped_lock lock(mutex_);
    std::vector<std::vector<std::size_t>> calls;
    for (const std::vector<std::size_t>& call : calls_) {
      if (call.front() % num_workers == w) calls.push_back(call);
    }
    return calls;
  }

 private:
  std::shared_ptr<const Model> inner_;
  mutable std::mutex mutex_;
  mutable std::vector<std::vector<std::size_t>> calls_;
};

std::shared_ptr<const Model> TinyModel() {
  Rng rng(3);
  ClassificationSpec spec;
  spec.num_examples = 240;
  spec.feature_dim = 4;
  spec.num_classes = 3;
  auto data = std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
  return std::make_shared<SoftmaxRegressionModel>(std::move(data),
                                                  SoftmaxRegressionConfig{});
}

struct Replay {
  std::size_t completed = 0;  // computations that ran every chunk
  std::size_t aborted = 0;    // attempts restarted on the same draw
};

// Replays one worker's gradient calls against `sampler`'s draws cut into
// `chunks` equal chunks: each call must be the next chunk of the current
// draw, or its first chunk again (an aborted attempt restarting, even one
// that computed every chunk), or, once every chunk of the current draw was
// computed, the first chunk of the next draw.
Replay ReplayDraws(const std::vector<std::vector<std::size_t>>& calls,
                   BatchSampler sampler, std::size_t chunks) {
  Replay replay;
  std::vector<std::size_t> draw;
  sampler.NextBatch(draw);
  const std::size_t size = draw.size() / chunks;
  const auto chunk = [&](std::size_t c) {
    return std::vector<std::size_t>(draw.begin() + c * size,
                                    draw.begin() + (c + 1) * size);
  };
  std::size_t next = 0;
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (next < chunks && calls[i] == chunk(next)) {
      ++next;
      continue;
    }
    if (next > 0 && calls[i] == chunk(0)) {
      ++replay.aborted;
    } else if (next == chunks) {
      ++replay.completed;
      sampler.NextBatch(draw);
      if (calls[i] != chunk(0)) {
        ADD_FAILURE() << "call " << i << " does not start draw "
                      << replay.completed;
        return replay;
      }
    } else {
      ADD_FAILURE() << "call " << i << " is neither chunk " << next
                    << " of draw " << replay.completed
                    << " nor a restart of it";
      return replay;
    }
    next = 1;
  }
  EXPECT_EQ(next, chunks) << "the calls end inside an attempt";
  if (next == chunks) ++replay.completed;
  return replay;
}

TEST(WorkerStepTest, AbortedAttemptKeepsItsBatch) {
  auto model = std::make_shared<RecordingModel>(TinyModel());
  FaultPlan faults{FaultPlanConfig{}};
  WorkerProtocolConfig config;
  config.num_workers = 1;
  config.num_servers = 2;
  config.scheme.speculation = SpeculationMode::kFixed;
  config.scheme.fixed_params.abort_time = Duration::Seconds(0.5);
  config.scheme.fixed_params.abort_rate = 0.5;
  WorkerProtocol protocol(model, std::make_shared<ConstantSchedule>(0.1),
                          config, faults, Rng(7));
  const auto shard = ShardIndices(model->dataset_size(), 1)[0];
  WorkerStep step(protocol, *model, 0, BatchSampler(shard, 8, Rng(5)), 4);
  const SimTime t = SimTime::Zero();

  const auto pull = [&] {
    protocol.store().PullInto(&step.snapshot());
    return step.Pulled(t, t);
  };

  // Iteration 0 completes; iteration 1 is aborted after two chunks and
  // restarted from a fresh pull.
  ASSERT_TRUE(pull().has_value());  // speculation: a pull notice
  while (!step.ComputeChunk()) {
  }
  step.EndCompute(t);
  step.PrepareCommit(/*route=*/true);
  ASSERT_EQ(step.Commit(t, step.plan().write_set, /*landed=*/true), 0u);
  pull();
  EXPECT_FALSE(step.ComputeChunk());
  EXPECT_FALSE(step.ComputeChunk());
  ASSERT_TRUE(protocol.ReSync(0, /*notified_iteration=*/0, t).has_value());
  pull();
  for (int c = 0; c < 3; ++c) EXPECT_FALSE(step.ComputeChunk());
  EXPECT_TRUE(step.ComputeChunk());
  step.EndCompute(t);

  const Replay replay = ReplayDraws(model->CallsOf(0, 1),
                                    BatchSampler(shard, 8, Rng(5)), 4);
  EXPECT_EQ(replay.completed, 2u);
  EXPECT_EQ(replay.aborted, 1u);
}

TEST(WorkerStepTest, OneChunkShipsTheChunkItself) {
  // One chunk is the gradient itself, not a merge of it: equal, bit for
  // bit, to the model's gradient of the whole batch.
  auto model = TinyModel();
  FaultPlan faults{FaultPlanConfig{}};
  WorkerProtocolConfig config;
  config.num_workers = 1;
  WorkerProtocol protocol(model, std::make_shared<ConstantSchedule>(0.1),
                          config, faults, Rng(7));
  const auto shard = ShardIndices(model->dataset_size(), 1)[0];
  WorkerStep step(protocol, *model, 0, BatchSampler(shard, 8, Rng(5)), 1);
  protocol.store().PullInto(&step.snapshot());
  step.Pulled(SimTime::Zero(), SimTime::Zero());
  EXPECT_TRUE(step.ComputeChunk());
  step.EndCompute(SimTime::Zero());

  BatchSampler sampler(shard, 8, Rng(5));
  std::vector<std::size_t> batch;
  sampler.NextBatch(batch);
  Gradient expected;
  model->LossAndGradient(step.snapshot().params, batch, expected);
  EXPECT_EQ(step.gradient().dense(), expected.dense());
}

// Hair-trigger speculation: every check re-syncs, so most iterations after
// the first are aborted once, at a chunk boundary.
RuntimeConfig HairTriggerRuntime(RuntimeTransport transport) {
  RuntimeConfig config;
  config.num_workers = 2;
  config.iterations_per_worker = 12;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(1000);
  config.fixed_params.abort_time = Duration::Milliseconds(1.5);
  config.fixed_params.abort_rate = 0.0;
  config.num_servers = 2;
  config.transport = transport;
  config.final_eval = false;
  return config;
}

void ExpectRuntimeFollowsTheDrawRule(RuntimeTransport transport) {
  const RuntimeConfig config = HairTriggerRuntime(transport);
  auto model = std::make_shared<RecordingModel>(TinyModel());
  RuntimeCluster cluster(model, std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  ASSERT_GT(result.total_aborts, 0u);
  const auto shards = ShardIndices(model->dataset_size(), config.num_workers);
  Replay total;
  for (WorkerId w = 0; w < config.num_workers; ++w) {
    // The runtime's sampler stream for worker w.
    Rng rng(config.seed * 7919 + w + 1);
    const Replay replay = ReplayDraws(
        model->CallsOf(w, config.num_workers),
        BatchSampler(shards[w], config.batch_size, rng.Fork()),
        config.compute_chunks);
    EXPECT_EQ(replay.completed, config.iterations_per_worker)
        << "worker " << w;
    total.aborted += replay.aborted;
  }
  EXPECT_EQ(total.aborted, result.total_aborts);
}

TEST(WorkerStepTest, RuntimeInProcessFollowsTheDrawRule) {
  ExpectRuntimeFollowsTheDrawRule(RuntimeTransport::kInProcess);
}

TEST(WorkerStepTest, RuntimeOverTcpFollowsTheDrawRule) {
  ExpectRuntimeFollowsTheDrawRule(RuntimeTransport::kTcpLoopback);
}

// Forwards to a real model, but draws its initial parameters from a fixed
// stream, so a test can replay a run from them.
class FixedInitModel final : public Model {
 public:
  explicit FixedInitModel(std::shared_ptr<const Model> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::size_t param_dim() const override { return inner_->param_dim(); }
  std::size_t dataset_size() const override { return inner_->dataset_size(); }
  void InitParams(std::span<double> params, Rng&) const override {
    Rng fixed(99);
    inner_->InitParams(params, fixed);
  }
  double LossAndGradient(std::span<const double> params,
                         std::span<const std::size_t> batch,
                         Gradient& grad) const override {
    return inner_->LossAndGradient(params, batch, grad);
  }
  double Loss(std::span<const double> params,
              std::span<const std::size_t> batch) const override {
    return inner_->Loss(params, batch);
  }
  bool prefers_sparse_gradients() const override {
    return inner_->prefers_sparse_gradients();
  }

 private:
  std::shared_ptr<const Model> inner_;
};

// MF over 2 workers whose factor rows are disjoint: ShardIndices deals
// rating i to worker i % 2, and rating i names a user and an item of parity
// i % 2. A worker's gradients then read and write only its own rows, so its
// pushes depend on nothing the other worker does, and each of its pulls
// holds its own rows exactly as its previous push left them.
std::shared_ptr<const Model> DisjointRowsMf() {
  Rng rng(4);
  auto data = std::make_shared<RatingsDataset>(16, 12);
  for (std::uint32_t i = 0; i < 240; ++i) {
    const std::uint32_t parity = i % 2;
    data->Add(Rating{
        .user = 2 * static_cast<std::uint32_t>(rng.Index(8)) + parity,
        .item = 2 * static_cast<std::uint32_t>(rng.Index(6)) + parity,
        .value = rng.Uniform(1.0, 5.0)});
  }
  return std::make_shared<FixedInitModel>(
      std::make_shared<MatrixFactorizationModel>(
          std::move(data), MatrixFactorizationConfig{.rank = 4}));
}

// Runs the hair-trigger runtime on DisjointRowsMf and replays each worker
// alone: its k-th completed computation's batch is its sampler's k-th draw
// (the draw rule), its push that batch's one-call gradient on the worker's
// own rows times 1 / compute_chunks, applied as the store applies it. The
// run's final weights must equal the replay's bit for bit, so no row of an
// aborted attempt reached a push, and no push lost a chunk.
void ExpectRuntimePushesAreBatchSums(RuntimeTransport transport) {
  const RuntimeConfig config = HairTriggerRuntime(transport);
  ASSERT_EQ(config.num_workers, 2u);
  const std::shared_ptr<const Model> model = DisjointRowsMf();
  const auto schedule = std::make_shared<ConstantSchedule>(0.1);
  RuntimeCluster cluster(model, schedule, config);
  const RuntimeResult result = cluster.Run();
  ASSERT_GT(result.total_aborts, 0u);
  ASSERT_EQ(result.total_pushes,
            config.num_workers * config.iterations_per_worker);

  std::vector<double> replay(model->param_dim());
  Rng unused(0);
  model->InitParams(replay, unused);
  const SgdApplier applier(schedule);
  const auto shards = ShardIndices(model->dataset_size(), config.num_workers);
  std::vector<std::size_t> batch;
  for (WorkerId w = 0; w < config.num_workers; ++w) {
    Rng rng(config.seed * 7919 + w + 1);  // the runtime's stream for w
    BatchSampler sampler(shards[w], config.batch_size, rng.Fork());
    for (std::size_t k = 0; k < config.iterations_per_worker; ++k) {
      sampler.NextBatch(batch);
      Gradient push;
      model->LossAndGradient(replay, batch, push);
      push.sparse().ScaleValues(1.0 /
                                static_cast<double>(config.compute_chunks));
      applier.Apply(push, /*epoch=*/0, replay);
    }
  }
  ASSERT_EQ(result.final_weights.size(), replay.size());
  for (std::size_t i = 0; i < replay.size(); ++i) {
    ASSERT_EQ(std::memcmp(&result.final_weights[i], &replay[i],
                          sizeof(double)),
              0)
        << "parameter " << i << ": " << result.final_weights[i]
        << ", replayed " << replay[i];
  }
}

TEST(WorkerStepTest, RuntimeInProcessPushesAreBatchSums) {
  ExpectRuntimePushesAreBatchSums(RuntimeTransport::kInProcess);
}

TEST(WorkerStepTest, RuntimeOverTcpPushesAreBatchSums) {
  ExpectRuntimePushesAreBatchSums(RuntimeTransport::kTcpLoopback);
}

TEST(WorkerStepTest, GoldenSimFollowsTheDrawRule) {
  // The golden 8-worker SpecSync-Adaptive run (GoldenTraceTest): a
  // simulated computation is one chunk, drawn when it ends, so an aborted
  // attempt never reaches the model.
  Workload workload = MakeConvexWorkload(/*seed=*/1, /*scale=*/0.2);
  auto model = std::make_shared<RecordingModel>(workload.model);
  workload.model = model;
  ExperimentConfig config;
  config.cluster = ClusterSpec::Homogeneous(8);
  config.cluster.num_servers = 2;
  config.scheme = SchemeSpec::Adaptive();
  config.max_time = SimTime::FromSeconds(240.0);
  config.stop_on_convergence = false;
  config.seed = 41;
  const ExperimentResult result = RunExperiment(workload, config);
  ASSERT_GT(result.sim.trace.total_aborts(), 0u);

  // The simulator's streams: the store's fork, then per worker its own
  // stream and its sampler's.
  Rng master(config.seed);
  master.Fork();
  const auto shards = ShardIndices(model->dataset_size(), 8);
  std::size_t completed = 0;
  for (WorkerId w = 0; w < 8; ++w) {
    master.Fork();
    const Replay replay =
        ReplayDraws(model->CallsOf(w, 8),
                    BatchSampler(shards[w], workload.batch_size,
                                 master.Fork()),
                    1);
    EXPECT_EQ(replay.aborted, 0u);
    completed += replay.completed;
  }
  EXPECT_GE(completed, result.sim.trace.total_pushes());
}

}  // namespace
}  // namespace specsync
