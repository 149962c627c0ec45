// Pins the runtime's steady-state in-process iteration (pull, batch sample,
// compute and push) as allocation-free, the fused TCP exchange as
// allocation-free on its calling thread, the scheduler's epoch retune (and
// the Adaptive tuner in it) as allocation-free once warm, and the wire
// encoder at no allocation into a reused frame and one into a fresh one.
//
// This file replaces the global operator new with a counting one, so it is
// its own test binary. It drives real matrix-factorization gradients through
// the WorkerStep that RuntimeCluster's WorkerLoop drives, in the loop's
// order, with the in-process store. Speculation is on, so the pull and
// notify messages are built; obs is off. After each worker's first
// iteration has sized its buffers, no iteration may allocate. Allocations
// are also counted per thread, so a test that runs a server loop beside its
// caller can pin the two apart.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive_tuner.h"
#include "core/scheduler.h"
#include "data/sharding.h"
#include "fault/fault_plan.h"
#include "harness/workload.h"
#include "models/model.h"
#include "net/event_loop_server.h"
#include "net/shard_client.h"
#include "net/wire.h"
#include "protocol/worker_protocol.h"
#include "protocol/worker_step.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
// This thread's share of g_allocations.
thread_local std::size_t t_allocations = 0;

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    ++t_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The aligned forms keep their default (aligned_alloc/free) pairing.
void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace specsync {
namespace {

// Allocations made by `fn`.
template <typename Fn>
std::size_t CountAllocations(Fn&& fn) {
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  fn();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(PushAllocTest, CounterSeesAllocations) {
  // An explicit operator new call cannot be elided, so this proves the
  // replacement is the one linked in.
  void* volatile sink = nullptr;
  EXPECT_EQ(CountAllocations([&] { sink = ::operator new(64); }), 1u);
  ::operator delete(sink);
}

TEST(PushAllocTest, SteadyStateMfPushAllocatesNothing) {
  constexpr std::size_t kWorkers = 2;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kChunks = 4;
  constexpr std::size_t kPushes = 1000;

  const Workload mf = MakeMfWorkload(/*seed=*/1);
  // The mf-inproc-ssp shape: SSP(2) over four shards, speculation adaptive.
  WorkerProtocolConfig config;
  config.num_workers = kWorkers;
  config.num_servers = kShards;
  config.sgd_clip = mf.sgd_clip;
  config.scheme = SchemeSpec::Ssp(2);
  config.scheme.speculation = SpeculationMode::kAdaptive;
  FaultPlan faults{FaultPlanConfig{}};
  WorkerProtocol protocol(mf.model, mf.schedule, config, faults, Rng(1));
  ParameterServer& server = protocol.store();
  Rng rng(1);
  auto shards = ShardIndices(mf.model->dataset_size(), kWorkers);
  // Each runtime worker thread lends its step a workspace of its own.
  std::vector<SumWorkspace> workspaces(kWorkers);
  std::vector<WorkerStep> steps;
  steps.reserve(kWorkers);
  for (WorkerId w = 0; w < kWorkers; ++w) {
    steps.emplace_back(
        protocol, *mf.model, w,
        BatchSampler(std::move(shards[w]), mf.batch_size, rng.Fork()),
        kChunks, workspaces[w]);
  }

  const SimTime now = SimTime::Zero();
  bool all_admitted = true;
  std::size_t chunks_computed = 0;
  const auto iterate = [&](WorkerId w) {
    WorkerStep& step = steps[w];
    const IterationId iteration = protocol.completed(w);
    all_admitted = protocol.Admit(w, now) && all_admitted;
    server.PullInto(&step.snapshot());
    step.Pulled(now, now);
    for (bool done = false; !done;) {
      done = step.ComputeChunk();
      ++chunks_computed;
    }
    step.EndCompute(now);
    step.PrepareCommit(/*route=*/true);
    const std::uint64_t version = server.Push(
        step.gradient(), protocol.GlobalEpoch(), step.plan().routes);
    step.Commit(now, step.plan().write_set, /*landed=*/true);
    protocol.Notify(w, iteration, now);
    step.RecordPush(now, now, iteration, version);
  };

  std::size_t allocations = 0;
  std::size_t max_nnz = 0;
  for (std::size_t p = 0; p < kWorkers + kPushes; ++p) {
    const WorkerId w = p % kWorkers;
    if (p < kWorkers) {
      // Warm-up: the worker's first iteration sizes its buffers.
      iterate(w);
      continue;
    }
    allocations += CountAllocations([&] { iterate(w); });
    max_nnz = std::max(max_nnz, steps[w].gradient().sparse().nnz());
    // Each pull saw every push before it: the snapshot is fresh, not reused.
    ASSERT_EQ(steps[w].snapshot().version, p);
  }
  EXPECT_EQ(allocations, 0u)
      << "over " << kPushes << " steady-state iterations";
  // Non-vacuity: real MF batch sums, every push admitted, gated and committed
  // with its write set.
  EXPECT_TRUE(all_admitted);
  EXPECT_TRUE(protocol.gated());
  EXPECT_NE(protocol.scheduler(), nullptr);
  EXPECT_GT(max_nnz, 1000u);
  EXPECT_EQ(chunks_computed, kChunks * (kWorkers + kPushes));
  EXPECT_EQ(steps[0].plan().write_set.size(), kShards);
  EXPECT_EQ(server.version(), kWorkers + kPushes);
  EXPECT_EQ(protocol.completed(0), (kWorkers + kPushes) / kWorkers);
}

// A fused TCP exchange on the mf-tcp store shape (one EventLoopServer over
// loopback serving four shards of an MF store): each PushAndPull pushes a
// summed 200-rating MF gradient and pulls into the one reused snapshot.
// Once a few rounds over the same gradients have sized every buffer, the
// calling thread allocates nothing, and the server (the only other thread)
// at most one frame per exchange, its response.
TEST(PushAllocTest, SteadyStateFusedExchangeAllocatesNothingOnTheCaller) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kChunks = 4;
  constexpr std::size_t kGradients = 8;
  constexpr std::size_t kRounds = 25;

  const Workload mf = MakeMfWorkload(/*seed=*/1);
  const std::size_t dim = mf.model->param_dim();
  ParameterServer store(dim, kShards,
                        std::make_shared<SgdApplier>(mf.schedule));
  Rng rng(1);
  store.Initialize(*mf.model, rng);
  net::EventLoopServer server(&store, net::ShardServerConfig{});
  ASSERT_TRUE(server.Start());
  net::ShardClientConfig config;
  for (std::size_t s = 0; s < kShards; ++s) {
    const ShardInfo info = store.shard(s);
    config.topology.shards.push_back(net::ShardPlacement{
        info.offset, info.length, net::Endpoint{"127.0.0.1", server.port()}});
  }
  net::ShardClient client(config);
  ASSERT_TRUE(client.Connect());

  // Batch sums of four 50-rating chunks, as WorkerStep sums them.
  const DenseVector params = store.Snapshot();
  BatchSampler sampler(ShardIndices(mf.model->dataset_size(), 1)[0],
                       mf.batch_size, rng.Fork());
  std::vector<std::size_t> batch;
  SumWorkspace workspace;
  std::vector<Gradient> summed(kGradients);
  for (Gradient& grad : summed) {
    sampler.NextBatch(batch);
    const std::size_t chunk_size = batch.size() / kChunks;
    grad.OpenSum(workspace);
    for (std::size_t c = 0; c < kChunks; ++c) {
      mf.model->LossAndGradient(
          params, std::span<const std::size_t>(batch).subspan(
                      c * chunk_size, chunk_size),
          grad);
    }
    grad.CloseSum(1.0 / kChunks);
  }

  PullResult snapshot;
  std::uint64_t version = 0;
  for (int warm = 0; warm < 3; ++warm) {
    for (const Gradient& grad : summed) {
      version = client.PushAndPull(grad, 0, snapshot);
    }
  }
  t_allocations = 0;
  const std::size_t total = CountAllocations([&] {
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (const Gradient& grad : summed) {
        version = client.PushAndPull(grad, 0, snapshot);
      }
    }
  });
  const std::size_t caller = t_allocations;
  const std::size_t exchanges = kRounds * kGradients;
  EXPECT_EQ(caller, 0u) << "over " << exchanges << " fused exchanges";
  EXPECT_LE(total - caller, exchanges)
      << "server allocations over " << exchanges << " fused exchanges";
  // Non-vacuity: every exchange pushed and pulled a full snapshot of real
  // MF rows.
  EXPECT_EQ(version, store.version());
  EXPECT_EQ(store.version(), 3 * kGradients + exchanges);
  EXPECT_EQ(snapshot.version, store.version());
  EXPECT_EQ(snapshot.params.size(), dim);
  EXPECT_EQ(summed.front().sparse().block_width(), 8u);
  EXPECT_GT(summed.front().sparse().nnz(), 1000u);
  server.Stop();
}

// One finished epoch shaped like sim-mf-adaptive's (the tuner bench's
// BM_AdaptiveTunerRetuneStaggered/40/80): 80 pushes by 40 workers at
// exponential gaps, every span half the epoch, each worker's last pull
// uniform in the epoch's last span.
TuningInputs SimShapedEpoch(std::uint64_t seed) {
  constexpr std::size_t kWorkers = 40;
  constexpr std::size_t kPushes = 80;
  TuningInputs inputs;
  inputs.num_workers = kWorkers;
  Rng rng(seed);
  SimTime t = SimTime::Zero();
  for (std::size_t i = 0; i < kPushes; ++i) {
    t += Duration::Seconds(rng.Exponential(static_cast<double>(kPushes)));
    inputs.pushes.emplace_back(t, static_cast<WorkerId>(i % kWorkers));
  }
  const Duration span = (t - SimTime::Zero()) / 2.0;
  inputs.iteration_span.assign(kWorkers, span);
  inputs.last_pull.resize(kWorkers);
  for (auto& pull : inputs.last_pull) {
    pull = t - span * rng.Uniform(0.0, 1.0);
  }
  return inputs;
}

// Once a retune of each epoch has sized the tuner's scratch (candidate keys,
// radix buffer, gains, per-worker push groups), retuning any of them again
// allocates nothing.
TEST(PushAllocTest, WarmedTunerRetunesAllocateNothing) {
  std::vector<TuningInputs> epochs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    epochs.push_back(SimShapedEpoch(seed));
  }
  AdaptiveTuner tuner;
  for (const TuningInputs& epoch : epochs) tuner.OnEpochEnd(epoch);
  std::size_t engaged = 0;
  const std::size_t allocations = CountAllocations([&] {
    for (int round = 0; round < 10; ++round) {
      for (const TuningInputs& epoch : epochs) {
        engaged += tuner.OnEpochEnd(epoch).enabled() ? 1 : 0;
      }
    }
  });
  EXPECT_EQ(allocations, 0u) << "over " << 10 * epochs.size() << " retunes";
  EXPECT_GT(engaged, 0u);  // non-vacuity: some retunes pick a window
}

// The scheduler's side of a retune: gathering the finished epoch into its
// reused TuningInputs, the Adaptive tuner, and trimming the history. Eight
// workers push and pull at jittered spans; after a warm-up has sized the
// history and the inputs, epoch after epoch allocates nothing.
TEST(PushAllocTest, SteadyStateSchedulerRetunesAllocateNothing) {
  constexpr std::size_t kWorkers = 8;
  const std::unique_ptr<SpecSyncScheduler> scheduler = MakeSpecSyncScheduler(
      kWorkers, SpeculationMode::kAdaptive, SpeculationParams{},
      AdaptiveTunerConfig{}, Duration::Seconds(1.0));
  Rng rng(7);
  std::vector<SimTime> next(kWorkers);
  std::vector<IterationId> iteration(kWorkers, 0);
  for (WorkerId w = 0; w < kWorkers; ++w) {
    scheduler->HandlePull(w, SimTime::Zero());
    next[w] = SimTime::FromSeconds(rng.Uniform(0.5, 1.5));
  }
  // One push by the worker due next, then its next pull.
  const auto step = [&] {
    const auto due = std::min_element(next.begin(), next.end());
    const auto w = static_cast<WorkerId>(due - next.begin());
    const SimTime now = *due;
    scheduler->HandleNotify(w, iteration[w]++, now);
    scheduler->HandlePull(w, now);
    *due = now + Duration::Seconds(rng.Uniform(0.5, 1.5) * (1.0 + 0.1 * w));
  };
  for (int event = 0; event < 50000; ++event) step();
  const std::uint64_t warm_retunes = scheduler->stats().retunes;
  const std::size_t allocations = CountAllocations([&] {
    for (int event = 0; event < 5000; ++event) step();
  });
  const std::uint64_t retunes = scheduler->stats().retunes - warm_retunes;
  EXPECT_EQ(allocations, 0u) << "over " << retunes << " retunes";
  EXPECT_GT(retunes, 100u);  // non-vacuity: the epochs really ended
}

// EncodeFrame sizes the frame exactly before writing it: into a fresh
// buffer a pull response and an MF-sized push batch (single entries and
// rows) each cost the one allocation of the frame, and into a buffer that
// already held a frame that size, nothing.
TEST(PushAllocTest, EncodeFrameAllocatesOnce) {
  net::PullShardResp resp;
  resp.params.assign(2000, 0.25);
  net::CommitPushReq batch{1, 1, {}};
  net::CommitPushReq rows{1, 2, {}};
  for (std::uint32_t s = 0; s < 4; ++s) {
    net::PushShardReq slice;
    slice.shard = s;
    slice.sparse = true;
    for (std::uint64_t i = 0; i < 624; ++i) {
      slice.indices.push_back(s * 10000 + i);
      slice.values.push_back(0.5);
    }
    batch.slices.push_back(slice);
    slice.block_width = 8;
    rows.slices.push_back(std::move(slice));
  }
  const net::TraceContext trace{1, 2};
  const net::TraceContext no_trace;
  for (const net::WireMessage& message :
       {net::WireMessage(resp), net::WireMessage(batch),
        net::WireMessage(rows)}) {
    for (const net::TraceContext* context : {&trace, &no_trace}) {
      std::vector<std::uint8_t> frame;
      EXPECT_EQ(CountAllocations(
                    [&] { frame = net::EncodeFrame(message, 7, context); }),
                1u);
      EXPECT_GT(frame.size(), 16000u);  // non-vacuity: a full-size frame
      EXPECT_EQ(CountAllocations(
                    [&] { net::EncodeFrame(message, 8, context, frame); }),
                0u);
    }
  }
}

}  // namespace
}  // namespace specsync
