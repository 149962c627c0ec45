// Tests for synthetic dataset generators and sharding.
#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "data/sharding.h"
#include "data/synthetic.h"
#include "tensor/vector.h"

namespace specsync {
namespace {

TEST(SyntheticClassificationTest, ShapeAndLabels) {
  Rng rng(1);
  ClassificationSpec spec;
  spec.num_examples = 100;
  spec.feature_dim = 8;
  spec.num_classes = 4;
  const auto data = GenerateClassification(spec, rng);
  EXPECT_EQ(data.size(), 100u);
  EXPECT_EQ(data.feature_dim(), 8u);
  EXPECT_EQ(data.num_classes(), 4u);
  std::set<std::uint32_t> labels;
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(data.example(i).features.size(), 8u);
    labels.insert(data.example(i).label);
  }
  EXPECT_EQ(labels.size(), 4u);  // balanced round-robin labeling
}

TEST(SyntheticClassificationTest, FeaturesAreUnitNormalized) {
  Rng rng(2);
  ClassificationSpec spec;
  spec.num_examples = 2000;
  spec.feature_dim = 64;
  spec.num_classes = 10;
  const auto data = GenerateClassification(spec, rng);
  RunningStats norms;
  for (std::size_t i = 0; i < data.size(); ++i) {
    norms.Add(SumOfSquares(data.example(i).features));
  }
  // E||x||^2 = separation^2/d + 1 with defaults (sep 2, noise 1): ~1.06.
  EXPECT_NEAR(norms.mean(), 1.0 + 4.0 / 64.0, 0.1);
}

TEST(SyntheticClassificationTest, SameSeedSameData) {
  ClassificationSpec spec;
  spec.num_examples = 10;
  spec.feature_dim = 4;
  spec.num_classes = 2;
  Rng a(7), b(7);
  const auto da = GenerateClassification(spec, a);
  const auto db = GenerateClassification(spec, b);
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da.example(i).features, db.example(i).features);
  }
}

TEST(SyntheticClassificationTest, SeparationMakesClassesDistinguishable) {
  // With huge separation and tiny noise, nearest-centroid on a fresh sample
  // of the same class should be closer than to other classes; we proxy this
  // by checking within-class distances < between-class distances.
  Rng rng(3);
  ClassificationSpec spec;
  spec.num_examples = 200;
  spec.feature_dim = 16;
  spec.num_classes = 2;
  spec.class_separation = 20.0;
  spec.noise_stddev = 0.1;
  const auto data = GenerateClassification(spec, rng);
  double within = 0.0, between = 0.0;
  int nw = 0, nb = 0;
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = i + 1; j < 50; ++j) {
      std::vector<double> diff(16);
      Sub(data.example(i).features, data.example(j).features, diff);
      const double d = Norm2(diff);
      if (data.example(i).label == data.example(j).label) {
        within += d;
        ++nw;
      } else {
        between += d;
        ++nb;
      }
    }
  }
  EXPECT_LT(within / nw, between / nb);
}

TEST(SyntheticRatingsTest, ShapeAndRanges) {
  Rng rng(4);
  RatingsSpec spec;
  spec.num_users = 50;
  spec.num_items = 30;
  spec.num_ratings = 500;
  const auto data = GenerateRatings(spec, rng);
  EXPECT_EQ(data.size(), 500u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_LT(data.rating(i).user, 50u);
    EXPECT_LT(data.rating(i).item, 30u);
  }
}

TEST(SyntheticRatingsTest, RatingsHaveUnitScale) {
  Rng rng(5);
  RatingsSpec spec;
  spec.num_users = 200;
  spec.num_items = 200;
  spec.num_ratings = 20000;
  spec.true_rank = 8;
  const auto data = GenerateRatings(spec, rng);
  RunningStats values;
  for (std::size_t i = 0; i < data.size(); ++i) values.Add(data.rating(i).value);
  EXPECT_NEAR(values.mean(), 0.0, 0.1);
  EXPECT_NEAR(values.stddev(), 1.0, 0.25);
}

TEST(DatasetTest, AddValidation) {
  ClassificationDataset data(3, 2);
  EXPECT_THROW(data.Add(Example{{1.0, 2.0}, 0}), CheckError);       // bad dim
  EXPECT_THROW(data.Add(Example{{1.0, 2.0, 3.0}, 5}), CheckError);  // bad label
  RatingsDataset ratings(10, 10);
  EXPECT_THROW(ratings.Add(Rating{10, 0, 1.0}), CheckError);
  EXPECT_THROW(ratings.Add(Rating{0, 10, 1.0}), CheckError);
}

TEST(ShardingTest, BalancedAndComplete) {
  const auto shards = ShardIndices(10, 3);
  ASSERT_EQ(shards.size(), 3u);
  EXPECT_EQ(shards[0].size(), 4u);
  EXPECT_EQ(shards[1].size(), 3u);
  EXPECT_EQ(shards[2].size(), 3u);
  std::set<std::size_t> all;
  for (const auto& shard : shards) all.insert(shard.begin(), shard.end());
  EXPECT_EQ(all.size(), 10u);
}

TEST(ShardingTest, MoreShardsThanItems) {
  const auto shards = ShardIndices(2, 5);
  EXPECT_EQ(shards[0].size(), 1u);
  EXPECT_EQ(shards[1].size(), 1u);
  EXPECT_TRUE(shards[2].empty());
}

TEST(BatchSamplerTest, BatchShapeAndRange) {
  BatchSampler sampler({5, 6, 7}, 8, Rng(1));
  std::vector<std::size_t> batch = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  sampler.NextBatch(batch);  // replaces, never appends
  EXPECT_EQ(batch.size(), 8u);
  for (std::size_t idx : batch) {
    EXPECT_TRUE(idx == 5 || idx == 6 || idx == 7);
  }
}

TEST(BatchSamplerTest, EmptyShardThrows) {
  EXPECT_THROW(BatchSampler({}, 4, Rng(1)), CheckError);
}

TEST(BatchSamplerTest, DeterministicForSeed) {
  BatchSampler a({1, 2, 3, 4}, 4, Rng(9));
  BatchSampler b({1, 2, 3, 4}, 4, Rng(9));
  std::vector<std::size_t> batch_a;
  std::vector<std::size_t> batch_b;
  a.NextBatch(batch_a);
  b.NextBatch(batch_b);
  EXPECT_EQ(batch_a, batch_b);
}

// The buffer is filled by exactly the draws of a hand-written rng.Index loop
// over the same stream, batch after batch, and is reused in place.
TEST(BatchSamplerTest, BufferDrawsMatchIndexLoopAndStayInPlace) {
  const std::vector<std::size_t> shard = {3, 14, 15, 92, 65, 35, 89};
  constexpr std::size_t kBatch = 5;
  Rng parent(42);
  Rng sampler_rng = parent.Fork();
  Rng parent_again(42);
  Rng reference = parent_again.Fork();
  BatchSampler sampler(shard, kBatch, std::move(sampler_rng));
  std::vector<std::size_t> batch;
  const std::size_t* data = nullptr;
  for (int round = 0; round < 2; ++round) {
    sampler.NextBatch(batch);
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < kBatch; ++i) {
      want.push_back(shard[reference.Index(shard.size())]);
    }
    EXPECT_EQ(batch, want) << "batch " << round;
    if (round == 0) data = batch.data();
    EXPECT_EQ(batch.data(), data) << "batch " << round;
  }
}

}  // namespace
}  // namespace specsync
