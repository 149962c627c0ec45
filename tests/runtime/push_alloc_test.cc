// Pins the runtime's steady-state in-process pull, compute and push spans as
// allocation-free, and the wire encoder at one allocation per frame.
//
// This file replaces the global operator new with a counting one, so it is
// its own test binary. It drives real matrix-factorization gradients through
// the steps of RuntimeCluster's WorkerLoop, with per-worker buffers reused
// the way WorkerLoop reuses them: WorkerProtocol::Admit at the SSP gate,
// ParameterServer::PullInto the worker's snapshot and RecordPull (which
// starts the computation), the model's LossAndGradient into each chunk
// gradients with a TakeReSync at every chunk boundary, EndCompute, then
// ChunkMerger::Merge, PrepareCommit (routes and write set), Push(grad,
// epoch, routes), Commit, Notify and RecordPush. Speculation is on, so the
// pull and notify messages are built; obs and the codec are off. After each
// worker's first iteration has sized its buffers, no iteration may
// allocate. Only the batch sample stays outside the counted window.

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "harness/workload.h"
#include "models/chunk_merger.h"
#include "net/wire.h"
#include "protocol/worker_protocol.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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
  const std::size_t dim = mf.model->param_dim();
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

  struct WorkerBuffers {
    explicit WorkerBuffers(std::size_t dim) : chunks(kChunks), merger(dim) {
      plan.write_set.reserve(kShards);
    }
    std::vector<Gradient> chunks;
    ChunkMerger merger;
    Gradient merged;
    PushPlan plan;
    PullResult snapshot;
  };
  std::vector<WorkerBuffers> workers;
  for (WorkerId w = 0; w < kWorkers; ++w) workers.emplace_back(dim);

  const std::size_t chunk_size = mf.batch_size / kChunks;
  const SimTime now = SimTime::Zero();
  bool all_admitted = true;
  const auto iterate = [&](WorkerId w, std::span<const std::size_t> batch) {
    WorkerBuffers& b = workers[w];
    const IterationId iteration = protocol.completed(w);
    all_admitted = protocol.Admit(w, now) && all_admitted;
    server.PullInto(&b.snapshot);
    protocol.RecordPull(w, now, now, b.snapshot.version);
    for (std::size_t c = 0; c < kChunks; ++c) {
      mf.model->LossAndGradient(b.snapshot.params,
                                batch.subspan(c * chunk_size, chunk_size),
                                b.chunks[c]);
      protocol.TakeReSync(w, now);
    }
    protocol.EndCompute(w, now);
    b.merger.Merge(b.chunks, b.merged);
    protocol.PrepareCommit(w, b.merged, b.plan, /*route=*/true);
    const std::uint64_t version =
        server.Push(b.merged, protocol.GlobalEpoch(), b.plan.routes);
    protocol.Commit(w, now, b.plan.write_set, /*landed=*/true);
    protocol.Notify(w, iteration, now);
    protocol.RecordPush(w, now, now, iteration, version);
  };

  std::size_t allocations = 0;
  std::size_t max_nnz = 0;
  for (std::size_t p = 0; p < kWorkers + kPushes; ++p) {
    const WorkerId w = p % kWorkers;
    const std::vector<std::size_t> batch =
        rng.SampleIndices(mf.model->dataset_size(), mf.batch_size);
    if (p < kWorkers) {
      // Warm-up: the worker's first iteration sizes its buffers.
      iterate(w, batch);
      continue;
    }
    allocations += CountAllocations([&] { iterate(w, batch); });
    max_nnz = std::max(max_nnz, workers[w].merged.sparse().nnz());
    // Each pull saw every push before it: the snapshot is fresh, not reused.
    ASSERT_EQ(workers[w].snapshot.version, p);
  }
  EXPECT_EQ(allocations, 0u)
      << "over " << kPushes << " steady-state iterations";
  // Non-vacuity: real MF merges, every push admitted, gated and committed
  // with its write set.
  EXPECT_TRUE(all_admitted);
  EXPECT_TRUE(protocol.gated());
  EXPECT_NE(protocol.scheduler(), nullptr);
  EXPECT_GT(max_nnz, 1000u);
  EXPECT_EQ(workers[0].plan.write_set.size(), kShards);
  EXPECT_EQ(server.version(), kWorkers + kPushes);
  EXPECT_EQ(protocol.completed(0), (kWorkers + kPushes) / kWorkers);
}

// EncodeFrame sizes the frame exactly before writing it, so a pull response
// and an MF-sized push batch each cost the one allocation of the frame.
TEST(PushAllocTest, EncodeFrameAllocatesOnce) {
  net::PullShardResp resp;
  resp.params.assign(2000, 0.25);
  net::CommitPushReq batch{1, 1, {}};
  for (std::uint32_t s = 0; s < 4; ++s) {
    net::PushShardReq slice;
    slice.shard = s;
    slice.sparse = true;
    for (std::uint64_t i = 0; i < 625; ++i) {
      slice.indices.push_back(s * 10000 + i);
      slice.values.push_back(0.5);
    }
    batch.slices.push_back(std::move(slice));
  }
  const net::TraceContext trace{1, 2};
  const net::TraceContext no_trace;
  for (const net::WireMessage& message :
       {net::WireMessage(resp), net::WireMessage(batch)}) {
    for (const net::TraceContext* context : {&trace, &no_trace}) {
      std::vector<std::uint8_t> frame;
      EXPECT_EQ(CountAllocations(
                    [&] { frame = net::EncodeFrame(message, 7, context); }),
                1u);
      EXPECT_GT(frame.size(), 16000u);  // non-vacuity: a full-size frame
    }
  }
}

}  // namespace
}  // namespace specsync
