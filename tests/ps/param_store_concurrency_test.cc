// Concurrency tests: the ParameterServer is shared by all runtime nodes, so
// hammer it from many threads and check the consistency contract the header
// documents — each shard is internally consistent (slice + shard version move
// together under the shard mutex), while a composed Pull() may be torn
// *across* shards. Run under TSan via scripts/sanitize.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "optim/lr_schedule.h"
#include "ps/param_store.h"
#include "tensor/vector.h"

namespace specsync {
namespace {

std::shared_ptr<const SgdApplier> UnitApplier() {
  return std::make_shared<SgdApplier>(std::make_shared<ConstantSchedule>(1.0));
}

TEST(ParamStoreConcurrencyTest, PushesFromManyThreadsAllApply) {
  constexpr std::size_t kDim = 256;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPushesPerThread = 200;
  ParameterServer server(kDim, 4, UnitApplier());
  server.SetParams(DenseVector(kDim, 0.0));

  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&server] {
        Gradient grad = Gradient::Dense(kDim);
        for (double& v : grad.dense()) v = -1.0;  // each push adds +1
        for (std::size_t i = 0; i < kPushesPerThread; ++i) {
          server.Push(grad, 0);
        }
      });
    }
  }
  EXPECT_EQ(server.version(), kThreads * kPushesPerThread);
  const DenseVector params = server.Snapshot();
  for (double v : params) {
    EXPECT_DOUBLE_EQ(v, static_cast<double>(kThreads * kPushesPerThread));
  }
}

// Writers add +1 to every coordinate per push. A composed Pull() may be torn
// across shards (by design), but within any one shard the slice must be
// uniform: the shard mutex covers the whole per-shard apply.
TEST(ParamStoreConcurrencyTest, PulledShardsAreInternallyConsistent) {
  constexpr std::size_t kDim = 512;
  constexpr std::size_t kShards = 8;
  ParameterServer server(kDim, kShards, UnitApplier());
  server.SetParams(DenseVector(kDim, 0.0));

  std::vector<ShardInfo> layout;
  for (std::size_t s = 0; s < kShards; ++s) layout.push_back(server.shard(s));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn_within_shard{0};
  {
    std::vector<std::jthread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&] {
        while (!stop.load(std::memory_order_relaxed)) {
          const PullResult pulled = server.Pull();
          for (const ShardInfo& shard : layout) {
            const double first = pulled.params[shard.offset];
            for (std::size_t i = 1; i < shard.length; ++i) {
              if (pulled.params[shard.offset + i] != first) {
                torn_within_shard.fetch_add(1, std::memory_order_relaxed);
                break;
              }
            }
          }
        }
      });
    }
    {
      std::vector<std::jthread> writers;
      for (int w = 0; w < 3; ++w) {
        writers.emplace_back([&server] {
          Gradient grad = Gradient::Dense(kDim);
          for (double& v : grad.dense()) v = -1.0;
          for (int i = 0; i < 300; ++i) server.Push(grad, 0);
        });
      }
    }  // join writers
    stop.store(true, std::memory_order_relaxed);
  }  // join readers
  EXPECT_EQ(torn_within_shard.load(), 0u);
  EXPECT_EQ(server.version(), 900u);
}

// PullShard's slice and shard version are read under one lock, so with +1
// dense pushes the slice value must equal the shard's push count exactly.
TEST(ParamStoreConcurrencyTest, PullShardSliceMatchesItsShardVersion) {
  constexpr std::size_t kDim = 96;
  constexpr std::size_t kShards = 4;
  ParameterServer server(kDim, kShards, UnitApplier());
  server.SetParams(DenseVector(kDim, 0.0));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> mismatches{0};
  {
    std::vector<std::jthread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&] {
        std::size_t s = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const ShardPullResult pulled = server.PullShard(s % kShards);
          for (double v : pulled.params) {
            if (v != static_cast<double>(pulled.shard_version)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
              break;
            }
          }
          ++s;
        }
      });
    }
    {
      std::vector<std::jthread> writers;
      for (int w = 0; w < 3; ++w) {
        writers.emplace_back([&server] {
          Gradient grad = Gradient::Dense(kDim);
          for (double& v : grad.dense()) v = -1.0;
          for (int i = 0; i < 200; ++i) server.Push(grad, 0);
        });
      }
    }  // join writers
    stop.store(true, std::memory_order_relaxed);
  }  // join readers
  EXPECT_EQ(mismatches.load(), 0u);
}

// Sparse pushes from threads owning disjoint index bands: per-shard routing
// must apply every entry exactly once with no cross-thread interference.
TEST(ParamStoreConcurrencyTest, DisjointSparsePushesAllLand) {
  constexpr std::size_t kDim = 64;
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kThreads = 4;  // one per shard band
  constexpr std::size_t kPushesPerThread = 500;
  ParameterServer server(kDim, kShards, UnitApplier());
  server.SetParams(DenseVector(kDim, 0.0));

  {
    std::vector<std::jthread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&server, t] {
        const ShardInfo shard = server.shard(t);
        Gradient grad = Gradient::Sparse();
        grad.sparse().Add(shard.offset, -1.0);  // adds +1 to one coordinate
        for (std::size_t i = 0; i < kPushesPerThread; ++i) {
          server.Push(grad, 0);
        }
      });
    }
  }
  EXPECT_EQ(server.version(), kThreads * kPushesPerThread);
  for (std::size_t s = 0; s < kShards; ++s) {
    const ShardPullResult pulled = server.PullShard(s);
    EXPECT_DOUBLE_EQ(pulled.params.front(),
                     static_cast<double>(kPushesPerThread));
    EXPECT_EQ(pulled.shard_version, kPushesPerThread);
  }
}

// Inline pulls (the runtime's in-process pull path) from several reader
// threads, each refilling its own reused buffer while dense pushes land:
// every shard slice a pull copies must come from one version of that shard,
// and a reader's successive pulls never go backwards on any shard.
TEST(ParamStoreConcurrencyTest, ConcurrentInlinePullsNeverTearAShard) {
  constexpr std::size_t kDim = 512;
  constexpr std::size_t kShards = 8;
  ParameterServer server(kDim, kShards, UnitApplier());
  server.SetParams(DenseVector(kDim, 0.0));

  std::vector<ShardInfo> layout;
  for (std::size_t s = 0; s < kShards; ++s) layout.push_back(server.shard(s));

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> torn_within_shard{0};
  std::atomic<std::uint64_t> went_backwards{0};
  {
    std::vector<std::jthread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&] {
        PullResult pulled;
        std::vector<double> last(kShards, 0.0);
        std::uint64_t last_version = 0;
        do {
          server.PullInto(&pulled);
          if (pulled.version < last_version) {
            went_backwards.fetch_add(1, std::memory_order_relaxed);
          }
          last_version = pulled.version;
          for (std::size_t s = 0; s < kShards; ++s) {
            const ShardInfo& shard = layout[s];
            const double first = pulled.params[shard.offset];
            if (first < last[s]) {
              went_backwards.fetch_add(1, std::memory_order_relaxed);
            }
            last[s] = first;
            for (std::size_t i = 1; i < shard.length; ++i) {
              if (pulled.params[shard.offset + i] != first) {
                torn_within_shard.fetch_add(1, std::memory_order_relaxed);
                break;
              }
            }
          }
        } while (!stop.load(std::memory_order_relaxed));
      });
    }
    {
      std::vector<std::jthread> writers;
      for (int w = 0; w < 2; ++w) {
        writers.emplace_back([&server] {
          Gradient grad = Gradient::Dense(kDim);
          for (double& v : grad.dense()) v = -1.0;
          for (int i = 0; i < 200; ++i) server.Push(grad, 0);
        });
      }
    }  // join writers
    stop.store(true, std::memory_order_relaxed);
  }  // join readers
  EXPECT_EQ(torn_within_shard.load(), 0u);
  EXPECT_EQ(went_backwards.load(), 0u);
  EXPECT_EQ(server.version(), 400u);
  const DenseVector params = server.Snapshot();
  for (double v : params) EXPECT_DOUBLE_EQ(v, 400.0);
}

}  // namespace
}  // namespace specsync
