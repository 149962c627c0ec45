#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace specsync {
namespace {

TEST(RunningStatsTest, EmptyIsZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats stats;
  stats.Add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_EQ(stats.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stats.min(), 5.0);
  EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(RunningStatsTest, KnownMoments) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.Add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  // Sample variance with n-1 = 32/7.
  EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng(7);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Normal(3.0, 2.0);
    all.Add(v);
    (i % 2 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a, empty;
  a.Add(1.0);
  a.Add(3.0);
  const double mean_before = a.mean();
  a.Merge(empty);
  EXPECT_DOUBLE_EQ(a.mean(), mean_before);
  empty.Merge(a);
  EXPECT_DOUBLE_EQ(empty.mean(), mean_before);
}

TEST(QuantileTest, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(QuantileTest, InterpolatesBetweenPoints) {
  // Sorted: {1, 2, 3, 4}; q=0.5 -> position 1.5 -> 2.5.
  EXPECT_DOUBLE_EQ(Quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
}

TEST(QuantileTest, Extremes) {
  std::vector<double> sample{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(Quantile(sample, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(sample, 1.0), 9.0);
}

TEST(QuantileTest, EmptySampleThrows) {
  EXPECT_THROW(Quantile({}, 0.5), CheckError);
}

TEST(QuantileTest, OutOfRangeQThrows) {
  EXPECT_THROW(Quantile({1.0}, 1.5), CheckError);
}

TEST(BoxSummaryTest, OrderedPercentiles) {
  Rng rng(11);
  std::vector<double> sample;
  for (int i = 0; i < 500; ++i) sample.push_back(rng.Uniform(0.0, 100.0));
  const BoxSummary box = BoxSummary::FromSample(sample);
  EXPECT_LE(box.p5, box.p25);
  EXPECT_LE(box.p25, box.p50);
  EXPECT_LE(box.p50, box.p75);
  EXPECT_LE(box.p75, box.p95);
  EXPECT_EQ(box.count, 500u);
  // Uniform[0,100]: median near 50.
  EXPECT_NEAR(box.p50, 50.0, 10.0);
}

TEST(BoxSummaryTest, EmptySampleIsZeroed) {
  const BoxSummary box = BoxSummary::FromSample({});
  EXPECT_EQ(box.count, 0u);
  EXPECT_EQ(box.p50, 0.0);
}

// Property: quantiles of a large normal sample approximate the theoretical
// inverse CDF.
class QuantileNormalTest : public ::testing::TestWithParam<double> {};

TEST_P(QuantileNormalTest, MatchesTheory) {
  const double q = GetParam();
  Rng rng(123);
  std::vector<double> sample;
  for (int i = 0; i < 20000; ++i) sample.push_back(rng.Normal(0.0, 1.0));
  // Normal inverse CDF reference points.
  double expected = 0.0;
  if (q == 0.5) expected = 0.0;
  if (q == 0.8413) expected = 1.0;
  if (q == 0.1587) expected = -1.0;
  EXPECT_NEAR(Quantile(sample, q), expected, 0.05);
}

INSTANTIATE_TEST_SUITE_P(ReferencePoints, QuantileNormalTest,
                         ::testing::Values(0.5, 0.8413, 0.1587));

}  // namespace
}  // namespace specsync
