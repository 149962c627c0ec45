// Tests for the parameter server and the ASP/BSP/SSP consistency controllers.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "data/synthetic.h"
#include "models/softmax_regression.h"
#include "ps/consistency.h"
#include "ps/param_store.h"
#include "support/shard_routes.h"

namespace specsync {
namespace {

std::shared_ptr<const SgdApplier> UnitApplier() {
  return std::make_shared<SgdApplier>(std::make_shared<ConstantSchedule>(1.0));
}

std::vector<ShardRoute> Routes(const ShardLayout& layout,
                               const Gradient& grad) {
  std::vector<ShardRoute> routes;
  layout.RouteInto(grad, routes);
  return routes;
}

// The reference push of one shard: the whole gradient, every entry of a
// sparse one scanned (entries outside the shard skipped), a dense one cut to
// the shard's slice. PushRoute reads only its route's entry range and must
// apply exactly what this applies.
bool PushShard(ParameterServer& server, std::size_t s, const Gradient& grad,
               EpochId epoch) {
  if (grad.is_sparse()) {
    return server.PushShardSparse(s, grad.sparse().indices(),
                                  grad.sparse().values(), epoch);
  }
  const ShardLayout& layout = server.layout();
  return server.PushShardDenseSlice(
      s,
      std::span<const double>(grad.dense())
          .subspan(layout.offset(s), layout.length(s)),
      epoch);
}

TEST(ParamStoreTest, ShardPartitioning) {
  ParameterServer server(10, 3, UnitApplier());
  EXPECT_EQ(server.num_shards(), 3u);
  EXPECT_EQ(server.shard(0).offset, 0u);
  EXPECT_EQ(server.shard(0).length, 4u);
  EXPECT_EQ(server.shard(1).offset, 4u);
  EXPECT_EQ(server.shard(1).length, 3u);
  EXPECT_EQ(server.shard(2).offset, 7u);
  EXPECT_EQ(server.shard(2).length, 3u);
  EXPECT_THROW(server.shard(3), CheckError);
}

TEST(ParamStoreTest, TooManyShardsThrows) {
  EXPECT_THROW(ParameterServer(2, 3, UnitApplier()), CheckError);
}

TEST(ParamStoreTest, PushAppliesAndBumpsVersion) {
  ParameterServer server(3, 1, UnitApplier());
  server.SetParams({1.0, 1.0, 1.0});
  EXPECT_EQ(server.version(), 0u);
  Gradient g = Gradient::Dense(3);
  g.dense() = {0.5, 0.0, -0.5};
  EXPECT_EQ(server.Push(g, 0), 1u);
  const PullResult pulled = server.Pull();
  EXPECT_EQ(pulled.version, 1u);
  EXPECT_EQ(pulled.params, (std::vector<double>{0.5, 1.0, 1.5}));
}

TEST(ParamStoreTest, PullIsSnapshotNotReference) {
  ParameterServer server(2, 1, UnitApplier());
  server.SetParams({0.0, 0.0});
  PullResult before = server.Pull();
  Gradient g = Gradient::Dense(2);
  g.dense() = {1.0, 1.0};
  server.Push(g, 0);
  EXPECT_EQ(before.params, (std::vector<double>{0.0, 0.0}));
}

TEST(ParamStoreTest, SparsePushTouchesOnlyItsShards) {
  ParameterServer server(10, 2, UnitApplier());  // shards [0,5), [5,10)
  Gradient g = Gradient::Sparse();
  g.sparse().Add(7, 1.0);
  server.Push(g, 0);
  EXPECT_EQ(server.shard(0).version, 0u);
  EXPECT_EQ(server.shard(1).version, 1u);
  // Dense pushes touch everything.
  Gradient d = Gradient::Dense(10);
  server.Push(d, 0);
  EXPECT_EQ(server.shard(0).version, 1u);
  EXPECT_EQ(server.shard(1).version, 2u);
  EXPECT_EQ(server.version(), 2u);
}

TEST(ParamStoreTest, PullShardReturnsInternallyConsistentSlice) {
  ParameterServer server(10, 3, UnitApplier());  // lengths 4, 3, 3
  DenseVector params(10);
  std::iota(params.begin(), params.end(), 0.0);
  server.SetParams(std::move(params));
  std::vector<double> slice(3);
  EXPECT_EQ(server.PullShardSlice(1, slice), 0u);  // the shard version
  EXPECT_EQ(slice, (std::vector<double>{4.0, 5.0, 6.0}));
  server.Push(Gradient::Dense(10), 0);
  EXPECT_EQ(server.PullShardSlice(1, slice), 1u);
  EXPECT_THROW(server.PullShardSlice(3, slice), CheckError);
  std::vector<double> wrong_length(4);
  EXPECT_THROW(server.PullShardSlice(1, wrong_length), CheckError);
}

TEST(ParamStoreTest, ShardOfMapsIndicesToOwners) {
  ParameterServer server(10, 3, UnitApplier());  // [0,4) [4,7) [7,10)
  EXPECT_EQ(server.ShardOf(0), 0u);
  EXPECT_EQ(server.ShardOf(3), 0u);
  EXPECT_EQ(server.ShardOf(4), 1u);
  EXPECT_EQ(server.ShardOf(6), 1u);
  EXPECT_EQ(server.ShardOf(7), 2u);
  EXPECT_EQ(server.ShardOf(9), 2u);
  EXPECT_THROW(server.ShardOf(10), CheckError);

  // An explicit uneven layout: [0,1) [1,9) [9,10).
  const ShardLayout uneven = ShardLayout::FromLengths({1, 8, 1});
  EXPECT_EQ(uneven.dim(), 10u);
  EXPECT_EQ(uneven.offset(2), 9u);
  EXPECT_EQ(uneven.ShardOf(0), 0u);
  EXPECT_EQ(uneven.ShardOf(1), 1u);
  EXPECT_EQ(uneven.ShardOf(8), 1u);
  EXPECT_EQ(uneven.ShardOf(9), 2u);
  EXPECT_THROW(uneven.ShardOf(10), CheckError);
  EXPECT_THROW(ShardLayout::FromLengths({}), CheckError);
  EXPECT_THROW(ShardLayout::FromLengths({0, 0}), CheckError);
}

TEST(ParamStoreTest, RouteGradientDenseHitsEveryShard) {
  ParameterServer server(10, 3, UnitApplier());
  Gradient g = Gradient::Dense(10);
  const auto routes = Routes(server.layout(), g);
  ASSERT_EQ(routes.size(), 3u);
  EXPECT_EQ(routes[0].shard, 0u);
  EXPECT_EQ(routes[0].bytes, 4u * sizeof(double));
  EXPECT_EQ(routes[1].bytes, 3u * sizeof(double));
  EXPECT_EQ(routes[2].bytes, 3u * sizeof(double));
}

TEST(ParamStoreTest, RouteGradientSparseHitsOnlyOwningShards) {
  ParameterServer server(10, 3, UnitApplier());  // [0,4) [4,7) [7,10)
  Gradient g = Gradient::Sparse();
  g.sparse().Add(1, 1.0);
  g.sparse().Add(2, 1.0);
  g.sparse().Add(8, 1.0);
  const auto routes = Routes(server.layout(), g);
  ASSERT_EQ(routes.size(), 2u);
  EXPECT_EQ(routes[0].shard, 0u);
  EXPECT_EQ(routes[0].bytes, 2u * 16u);  // two (index, value) entries
  EXPECT_EQ(routes[1].shard, 2u);
  EXPECT_EQ(routes[1].bytes, 16u);
}

TEST(ParamStoreTest, RouteGradientEmptyStillSendsOneMessage) {
  // An empty push must remain one logical push (one wire message, one
  // version bump), not silently vanish from the protocol.
  ParameterServer server(10, 3, UnitApplier());
  Gradient g = Gradient::Sparse();
  const auto routes = Routes(server.layout(), g);
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_EQ(routes[0].shard, 0u);
  EXPECT_EQ(routes[0].bytes, 0u);
}

TEST(ParamStoreTest, CursorRoutingMatchesPerIndexShardOf) {
  struct Case {
    const char* name;
    std::size_t dim;
    std::size_t shards;
    std::vector<std::uint64_t> indices;
    // The same dim cut into an explicit uneven slice list.
    std::vector<std::size_t> uneven;
  };
  // dim 10 over 3 shards is [0,4) [4,7) [7,10), unevenly [0,1) [1,9) [9,10);
  // dim 64 over 4 is 16 each.
  const std::vector<Case> cases = {
      {"empty", 10, 3, {}, {1, 8, 1}},
      {"sorted", 10, 3, {0, 1, 3, 4, 6, 7, 9}, {1, 8, 1}},
      {"sorted one shard", 10, 3, {4, 5, 6}, {1, 8, 1}},
      {"unsorted", 10, 3, {9, 0, 5, 2, 7, 4}, {1, 8, 1}},
      {"descending", 10, 3, {9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, {1, 8, 1}},
      {"duplicates", 10, 3, {3, 3, 4, 4, 4, 3, 9, 9}, {1, 8, 1}},
      {"shard boundaries", 10, 3, {3, 4, 6, 7, 3, 7}, {1, 8, 1}},
      {"dim-1 only", 10, 3, {9}, {1, 8, 1}},
      {"dim-1 then 0", 10, 3, {9, 0}, {1, 8, 1}},
      {"skips middle shard", 10, 3, {0, 8, 1, 9}, {1, 8, 1}},
      // transport_test.cc's golden schedule: (w*7) % dim, (w*7 + dim/2) % dim.
      {"golden pair w=3", 64, 4, {21, 53}, {1, 21, 41, 1}},
      {"golden pair w=5", 64, 4, {35, 3}, {1, 21, 41, 1}},
      {"single shard", 7, 1, {6, 0, 3, 3}, {6, 1}},
      {"one index per shard", 4, 4, {3, 2, 1, 0, 0, 3}, {1, 2, 1}},
  };
  std::vector<ShardRoute> reused = {{2, 99}, {1, 7}};
  for (const Case& c : cases) {
    const ShardLayout layouts[] = {ShardLayout::Even(c.dim, c.shards),
                                   ShardLayout::FromLengths(c.uneven)};
    for (const ShardLayout& layout : layouts) {
      SCOPED_TRACE(std::string(c.name) +
                   (&layout == &layouts[0] ? ", even" : ", uneven"));
      ASSERT_EQ(layout.dim(), c.dim);
      Gradient g = Gradient::Sparse();
      for (const std::uint64_t index : c.indices) g.sparse().Add(index, 1.0);
      const auto want = ReferenceRoutes(layout, c.indices);
      const auto got = Routes(layout, g);
      layout.RouteInto(g, reused);  // stale contents must be cleared
      ASSERT_EQ(got.size(), want.size());
      ASSERT_EQ(reused.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].shard, want[i].shard) << "route " << i;
        EXPECT_EQ(got[i].bytes, want[i].bytes) << "route " << i;
        EXPECT_EQ(reused[i].shard, want[i].shard) << "route " << i;
        EXPECT_EQ(reused[i].bytes, want[i].bytes) << "route " << i;
        EXPECT_EQ(reused[i].begin, got[i].begin) << "route " << i;
        EXPECT_EQ(reused[i].end, got[i].end) << "route " << i;
        // [begin, end) runs from the shard's first entry to its last.
        if (got[i].bytes == 0) continue;
        std::size_t first = c.indices.size();
        std::size_t last = 0;
        for (std::size_t e = 0; e < c.indices.size(); ++e) {
          if (layout.ShardOf(c.indices[e]) != got[i].shard) continue;
          first = std::min(first, e);
          last = e;
        }
        EXPECT_EQ(got[i].begin, first) << "route " << i;
        EXPECT_EQ(got[i].end, last + 1) << "route " << i;
      }
      // An index past the end is rejected whatever shard the cursor holds.
      Gradient past = Gradient::Sparse();
      past.sparse().Add(c.dim - 1, 1.0);
      past.sparse().Add(c.dim, 1.0);
      EXPECT_THROW(layout.RouteInto(past, reused), CheckError);
    }
  }
}

TEST(ParamStoreTest, PushWithRoutesEqualsPush) {
  ParameterServer a(10, 3, UnitApplier());
  ParameterServer b(10, 3, UnitApplier());
  Gradient g = Gradient::Sparse();
  g.sparse().Add(8, 0.5);
  g.sparse().Add(1, -0.25);
  const std::vector<ShardRoute> routes = Routes(b.layout(), g);
  EXPECT_EQ(a.Push(g, 0), b.Push(g, 0, routes));
  EXPECT_EQ(a.Pull().params, b.Pull().params);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(a.shard(s).version, b.shard(s).version) << "shard " << s;
  }
}

// PushRoute reads only the route's entry range, yet applies exactly what
// a whole-gradient PushShard applies: sorted, unsorted (other shards'
// entries inside the range) and duplicate-heavy gradients, and dense ones.
TEST(ParamStoreTest, PushRouteEqualsWholeGradientPushShard) {
  const std::vector<std::vector<std::uint64_t>> cases = {
      {0, 1, 3, 4, 6, 7, 9},
      {9, 0, 5, 2, 7, 4},
      {3, 3, 4, 4, 4, 3, 9, 9},
      {0, 8, 1, 9, 0, 5},
      {}};
  for (const auto& indices : cases) {
    ParameterServer whole(10, 3, UnitApplier());
    ParameterServer ranged(10, 3, UnitApplier());
    Gradient g = Gradient::Sparse();
    for (std::size_t e = 0; e < indices.size(); ++e) {
      g.sparse().Add(indices[e], 0.1 * static_cast<double>(e + 1) / 3.0);
    }
    for (const ShardRoute& route : Routes(ranged.layout(), g)) {
      EXPECT_EQ(PushShard(whole, route.shard, g, 0),
                ranged.PushRoute(route, g, 0));
    }
    EXPECT_EQ(whole.Pull().params, ranged.Pull().params);
    for (std::size_t s = 0; s < 3; ++s) {
      EXPECT_EQ(whole.shard(s).version, ranged.shard(s).version);
    }
  }
  ParameterServer whole(10, 3, UnitApplier());
  ParameterServer ranged(10, 3, UnitApplier());
  Gradient dense = Gradient::Dense(10);
  for (std::size_t i = 0; i < 10; ++i) {
    dense.dense()[i] = 0.1 * static_cast<double>(i);
  }
  const auto routes = Routes(ranged.layout(), dense);
  ASSERT_EQ(routes.size(), 3u);
  EXPECT_EQ(routes[1].begin, 4u);  // [0,4) [4,7) [7,10)
  EXPECT_EQ(routes[1].end, 7u);
  for (const ShardRoute& route : routes) {
    EXPECT_TRUE(PushShard(whole, route.shard, dense, 0));
    EXPECT_TRUE(ranged.PushRoute(route, dense, 0));
  }
  EXPECT_EQ(whole.Pull().params, ranged.Pull().params);
}

TEST(ParamStoreTest, PushShardAppliesSliceWithoutCommitting) {
  ParameterServer server(10, 2, UnitApplier());  // [0,5) [5,10)
  server.SetParams(DenseVector(10, 0.0));
  Gradient g = Gradient::Dense(10);
  for (double& v : g.dense()) v = -1.0;  // each apply adds +1
  EXPECT_TRUE(PushShard(server, 0, g, 0));
  // The slice landed, but no logical push committed yet.
  EXPECT_EQ(server.version(), 0u);
  EXPECT_EQ(server.shard(0).version, 1u);
  EXPECT_EQ(server.shard(1).version, 0u);
  const PullResult mid = server.Pull();
  EXPECT_DOUBLE_EQ(mid.params[0], 1.0);
  EXPECT_DOUBLE_EQ(mid.params[5], 0.0);  // other shard untouched

  EXPECT_TRUE(PushShard(server, 1, g, 0));
  EXPECT_EQ(server.CommitPush(), 1u);
  EXPECT_EQ(server.version(), 1u);

  // A duplicated slice (network replay) re-applies without a new commit.
  EXPECT_TRUE(PushShard(server, 0, g, 0));
  EXPECT_EQ(server.version(), 1u);
  EXPECT_EQ(server.shard(0).version, 2u);
}

TEST(ParamStoreTest, PushShardSkipsForeignSparseEntries) {
  ParameterServer server(10, 2, UnitApplier());  // [0,5) [5,10)
  server.SetParams(DenseVector(10, 0.0));
  Gradient g = Gradient::Sparse();
  g.sparse().Add(7, -1.0);
  // Shard 0 owns none of the entries: nothing applies, no version bump.
  EXPECT_FALSE(PushShard(server, 0, g, 0));
  EXPECT_EQ(server.shard(0).version, 0u);
  EXPECT_TRUE(PushShard(server, 1, g, 0));
  EXPECT_EQ(server.shard(1).version, 1u);
  const PullResult pulled = server.Pull();
  EXPECT_DOUBLE_EQ(pulled.params[7], 1.0);
}

TEST(ParamStoreTest, PushShardSparseAppliesDecodedEntriesLikePushShard) {
  ParameterServer a(10, 2, UnitApplier());  // [0,5) [5,10)
  ParameterServer b(10, 2, UnitApplier());
  Gradient g = Gradient::Sparse();
  g.sparse().Add(7, -1.0);
  g.sparse().Add(2, 0.5);
  g.sparse().Add(7, 0.25);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(PushShard(a, s, g, 0),
              b.PushShardSparse(s, g.sparse().indices(), g.sparse().values(),
                                0));
    EXPECT_EQ(a.shard(s).version, b.shard(s).version) << "shard " << s;
  }
  EXPECT_EQ(a.Pull().params, b.Pull().params);
  // No entry inside the shard: nothing applies and the version stays.
  const std::vector<std::uint64_t> foreign{8};
  const std::vector<double> value{1.0};
  EXPECT_FALSE(b.PushShardSparse(0, foreign, value, 0));
  EXPECT_EQ(b.shard(0).version, 1u);
  EXPECT_EQ(b.version(), 0u) << "a slice never commits";
}

// Regression for the version contract: version() counts logical pushes, not
// shard touches. A sparse push routed to one of four shards must advance the
// global counter by exactly 1 (it used to be easy to conflate the two).
TEST(ParamStoreTest, SparsePushBumpsGlobalVersionByOne) {
  ParameterServer server(16, 4, UnitApplier());
  Gradient narrow = Gradient::Sparse();
  narrow.sparse().Add(0, 1.0);
  EXPECT_EQ(server.Push(narrow, 0), 1u);
  EXPECT_EQ(server.version(), 1u);
  Gradient wide = Gradient::Dense(16);
  EXPECT_EQ(server.Push(wide, 0), 2u);
  EXPECT_EQ(server.version(), 2u);
  // Shard versions record touches: shard 0 saw both pushes, others only the
  // dense one.
  EXPECT_EQ(server.shard(0).version, 2u);
  EXPECT_EQ(server.shard(1).version, 1u);
  EXPECT_EQ(server.shard(3).version, 1u);
}

TEST(ParamStoreTest, ShardBytesCoverPullBytes) {
  ParameterServer server(10, 3, UnitApplier());
  std::size_t total = 0;
  for (std::size_t s = 0; s < server.num_shards(); ++s) {
    total += server.shard_bytes(s);
  }
  EXPECT_EQ(total, server.dim() * sizeof(double));
}

TEST(ParamStoreTest, InitializeUsesModel) {
  Rng data_rng(1);
  ClassificationSpec spec;
  spec.num_examples = 10;
  spec.feature_dim = 4;
  spec.num_classes = 2;
  auto data = std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, data_rng));
  SoftmaxRegressionModel model(data, {});
  ParameterServer server(model.param_dim(), 2, UnitApplier());
  Rng init_rng(2);
  server.Initialize(model, init_rng);
  const auto snapshot = server.Snapshot();
  // Not all zeros after init.
  double sum_abs = 0.0;
  for (double v : snapshot) sum_abs += std::abs(v);
  EXPECT_GT(sum_abs, 0.0);
  EXPECT_EQ(server.version(), 0u);
}

TEST(ParamStoreTest, PullBytes) {
  ParameterServer server(100, 4, UnitApplier());
  std::size_t total = 0;
  for (std::size_t s = 0; s < server.num_shards(); ++s) {
    total += server.shard_bytes(s);
  }
  EXPECT_EQ(total, 800u);
}

// --- consistency controllers -------------------------------------------------

std::unique_ptr<PerShardSspController> Make(ConsistencyScheme scheme,
                                            std::size_t workers,
                                            std::uint64_t staleness = 3,
                                            std::size_t shards = 2) {
  ConsistencySpec spec;
  spec.scheme = scheme;
  spec.staleness = staleness;
  return MakeConsistencyController(spec, workers, shards);
}

// Dense push, as the engines report it when routing is unknown.
void DensePush(PerShardSspController& c, WorkerId w, IterationId t) {
  c.OnPush(w, t, SimTime::Zero(), {});
}

TEST(AspControllerTest, AlwaysAllows) {
  // ASP builds no gate: both engines admit every start without asking.
  EXPECT_EQ(Make(ConsistencyScheme::kAsp, 3), nullptr);
}

TEST(BspControllerTest, BarriersEachIteration) {
  auto bsp = Make(ConsistencyScheme::kBsp, 2);
  // Everyone may start iteration 0.
  EXPECT_TRUE(bsp->MayStart(0, 0));
  EXPECT_TRUE(bsp->MayStart(1, 0));
  DensePush(*bsp, 0, 0);
  // Worker 0 finished iteration 0 but worker 1 has not: 0 must wait.
  EXPECT_FALSE(bsp->MayStart(0, 1));
  DensePush(*bsp, 1, 0);
  EXPECT_TRUE(bsp->MayStart(0, 1));
  EXPECT_TRUE(bsp->MayStart(1, 1));
}

TEST(SspControllerTest, BoundedStaleness) {
  auto ssp = Make(ConsistencyScheme::kSsp, 2, 2);
  EXPECT_EQ(ssp->staleness(), 2u);
  // Worker 0 may run up to 2 iterations ahead of the slowest.
  EXPECT_TRUE(ssp->MayStart(0, 0));
  DensePush(*ssp, 0, 0);
  EXPECT_TRUE(ssp->MayStart(0, 1));
  DensePush(*ssp, 0, 1);
  EXPECT_TRUE(ssp->MayStart(0, 2));
  DensePush(*ssp, 0, 2);
  EXPECT_FALSE(ssp->MayStart(0, 3));  // 3 > 0 (min) + 2
  DensePush(*ssp, 1, 0);
  EXPECT_TRUE(ssp->MayStart(0, 3));
  EXPECT_EQ(ssp->MinShardClock(0), 1u);
}

TEST(SspControllerTest, OutOfOrderPushThrows) {
  auto ssp = Make(ConsistencyScheme::kSsp, 2, 1);
  DensePush(*ssp, 0, 0);
  EXPECT_THROW(DensePush(*ssp, 0, 0), CheckError);  // duplicate
  EXPECT_THROW(DensePush(*ssp, 1, 3), CheckError);  // skipped ahead
}

TEST(ControllerFactoryTest, MakesExpectedTypes) {
  // The static schemes: global bounds on write sets frozen to every shard,
  // so they gate before any push has been seen.
  auto bsp = Make(ConsistencyScheme::kBsp, 2, /*staleness=*/5, /*shards=*/3);
  EXPECT_EQ(bsp->staleness(), 0u);  // BSP ignores the spec's bound
  auto ssp = Make(ConsistencyScheme::kSsp, 2, /*staleness=*/5, /*shards=*/3);
  EXPECT_EQ(ssp->staleness(), 5u);
  for (const PerShardSspController* c : {bsp.get(), ssp.get()}) {
    EXPECT_EQ(c->num_workers(), 2u);
    EXPECT_EQ(c->num_shards(), 3u);
    EXPECT_EQ(dynamic_cast<const DynamicSspController*>(c), nullptr);
    for (WorkerId w = 0; w < 2; ++w) {
      for (std::size_t s = 0; s < 3; ++s) EXPECT_TRUE(c->writes(w, s));
    }
  }
  // Frozen: a push touching one shard leaves the write set whole.
  const std::size_t one[] = {1};
  ssp->OnPush(0, 0, SimTime::Zero(), one);
  for (std::size_t s = 0; s < 3; ++s) EXPECT_TRUE(ssp->writes(0, s));
}

// BSP == SSP(0) equivalence property over a random schedule.
TEST(ControllerEquivalenceTest, BspEqualsSspZero) {
  auto bsp = Make(ConsistencyScheme::kBsp, 3);
  auto ssp0 = Make(ConsistencyScheme::kSsp, 3, 0);
  Rng rng(5);
  std::vector<IterationId> next(3, 0);
  for (int step = 0; step < 200; ++step) {
    const WorkerId w = static_cast<WorkerId>(rng.Index(3));
    EXPECT_EQ(bsp->MayStart(w, next[w]), ssp0->MayStart(w, next[w]));
    if (bsp->MayStart(w, next[w])) {
      DensePush(*bsp, w, next[w]);
      DensePush(*ssp0, w, next[w]);
      ++next[w];
    }
  }
}

}  // namespace
}  // namespace specsync
