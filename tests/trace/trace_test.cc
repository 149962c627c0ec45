// Tests for traces, PAP analysis (Fig. 3), and transfer accounting (Figs 12-13).
#include <gtest/gtest.h>

#include "common/check.h"
#include "trace/pap_analysis.h"
#include "trace/trace.h"
#include "trace/transfer.h"

namespace specsync {
namespace {

SimTime T(double s) { return SimTime::FromSeconds(s); }
Duration D(double s) { return Duration::Seconds(s); }

TEST(TrainingTraceTest, RecordsAndQueries) {
  TrainingTrace trace(2);
  trace.RecordPull(0, T(1.0), 0);
  trace.RecordPush(0, T(2.0), 0, 1, 0);
  trace.RecordPull(1, T(2.5), 1);
  trace.RecordPush(1, T(3.5), 0, 2, 1);
  trace.RecordAbort(0, T(3.0), D(0.5));
  trace.RecordLoss(T(4.0), 1.5, 2, 0);

  EXPECT_EQ(trace.total_pushes(), 2u);
  EXPECT_EQ(trace.total_aborts(), 1u);
  EXPECT_EQ(trace.PullTimes(0), (std::vector<SimTime>{T(1.0)}));
  EXPECT_EQ(trace.PushTimes(1), (std::vector<SimTime>{T(3.5)}));
  EXPECT_DOUBLE_EQ(trace.total_wasted_compute().seconds(), 0.5);
  EXPECT_EQ(trace.end_time(), T(4.0));
  ASSERT_EQ(trace.losses().size(), 1u);
  EXPECT_DOUBLE_EQ(trace.losses()[0].loss, 1.5);
}

TEST(TrainingTraceTest, InvalidWorkerThrows) {
  TrainingTrace trace(1);
  EXPECT_THROW(trace.RecordPull(1, T(0.0), 0), CheckError);
  EXPECT_THROW(trace.PushTimes(2), CheckError);
}

TEST(TrainingTraceTest, ConvergenceSampleIsTheFirstStreaksFirst) {
  TrainingTrace trace(1);
  trace.RecordLoss(T(1.0), 0.5, 10, 0);  // a streak of one
  trace.RecordLoss(T(2.0), 2.0, 20, 0);  // excursion
  trace.RecordLoss(T(3.0), 0.5, 30, 0);
  trace.RecordLoss(T(4.0), 0.5, 40, 0);
  trace.RecordLoss(T(5.0), 0.5, 50, 0);
  const auto losses = trace.losses();
  EXPECT_EQ(ConvergenceSample(losses, 1.0, 2), &losses[2]);
  EXPECT_EQ(ConvergenceSample(losses, 1.0, 3), &losses[2]);
  EXPECT_EQ(ConvergenceSample(losses, 1.0, 4), nullptr);
  // A tail that ends a streak (the simulator's stop check) finds it too.
  EXPECT_EQ(ConvergenceSample(losses.last(2), 1.0, 2), &losses[3]);
  EXPECT_EQ(ConvergenceSample(losses.first(2), 1.0, 2), nullptr);
  EXPECT_THROW(ConvergenceSample(losses, 1.0, 0), CheckError);
}

// PAP: pulls at t=0 (worker 0); other workers push at 0.5, 1.5, 1.6.
TEST(PapAnalysisTest, CountsPushesPerInterval) {
  TrainingTrace trace(2);
  trace.RecordPull(0, T(0.0), 0);
  trace.RecordPush(1, T(0.5), 0, 1, 0);
  trace.RecordPush(1, T(1.5), 1, 2, 0);
  trace.RecordPush(1, T(1.6), 2, 3, 0);
  trace.RecordLoss(T(10.0), 0.0, 3, 0);  // extends end_time so horizon fits

  PapConfig config;
  config.interval = D(1.0);
  config.num_intervals = 3;
  const PapResult result = AnalyzePap(trace, config);
  ASSERT_EQ(result.per_interval.size(), 3u);
  EXPECT_DOUBLE_EQ(result.mean_per_interval[0], 1.0);
  EXPECT_DOUBLE_EQ(result.mean_per_interval[1], 2.0);
  EXPECT_DOUBLE_EQ(result.mean_per_interval[2], 0.0);
  EXPECT_DOUBLE_EQ(result.median_first_two, 3.0);
}

TEST(PapAnalysisTest, OwnPushesExcluded) {
  TrainingTrace trace(2);
  trace.RecordPull(0, T(0.0), 0);
  trace.RecordPush(0, T(0.5), 0, 1, 0);  // own push: not a missed update
  trace.RecordPush(1, T(0.7), 0, 2, 0);
  trace.RecordLoss(T(5.0), 0.0, 2, 0);
  PapConfig config;
  config.interval = D(1.0);
  config.num_intervals = 2;
  const PapResult result = AnalyzePap(trace, config);
  EXPECT_DOUBLE_EQ(result.mean_per_interval[0], 1.0);
}

TEST(PapAnalysisTest, PullsWithoutFullHorizonSkipped) {
  TrainingTrace trace(2);
  trace.RecordPull(0, T(0.0), 0);
  trace.RecordPush(1, T(0.5), 0, 1, 0);  // end_time = 0.5 < horizon
  PapConfig config;
  config.interval = D(1.0);
  config.num_intervals = 3;
  const PapResult result = AnalyzePap(trace, config);
  EXPECT_EQ(result.per_interval[0].count, 0u);
}

TEST(PapAnalysisTest, UniformArrivalsGiveFlatProfile) {
  // 10 workers pushing round-robin every 0.1s: each 1s interval after any
  // pull contains ~9 other-worker pushes.
  TrainingTrace trace(10);
  for (WorkerId w = 0; w < 10; ++w) trace.RecordPull(w, T(0.05), 0);
  std::uint64_t version = 0;
  for (int i = 0; i < 400; ++i) {
    trace.RecordPush(static_cast<WorkerId>(i % 10), T(0.1 * i), i / 10,
                     ++version, 0);
  }
  PapConfig config;
  config.interval = D(1.0);
  config.num_intervals = 10;
  const PapResult result = AnalyzePap(trace, config);
  for (std::size_t k = 0; k < 10; ++k) {
    EXPECT_NEAR(result.mean_per_interval[k], 9.0, 1.1) << "interval " << k;
  }
}

TEST(TransferTest, ChargesByCategory) {
  TransferAccountant transfers;
  transfers.Charge(TransferCategory::kPullParams, 1000, T(1.0));
  transfers.Charge(TransferCategory::kPushGrads, 500, T(2.0));
  transfers.Charge(TransferCategory::kNotify, 64, T(3.0));
  EXPECT_EQ(transfers.total_bytes(), 1564u);
  EXPECT_EQ(transfers.bytes(TransferCategory::kPullParams), 1000u);
  EXPECT_NEAR(transfers.fraction(TransferCategory::kPushGrads), 500.0 / 1564.0,
              1e-12);
  EXPECT_EQ(transfers.bytes(TransferCategory::kReSync), 0u);
}

TEST(TransferTest, OutOfOrderChargeThrows) {
  TransferAccountant transfers;
  transfers.Charge(TransferCategory::kNotify, 1, T(5.0));
  EXPECT_THROW(transfers.Charge(TransferCategory::kNotify, 1, T(4.0)),
               CheckError);
}

TEST(TransferTest, TimelineIsCumulativeAndMonotone) {
  TransferAccountant transfers;
  transfers.Charge(TransferCategory::kPullParams, 100, T(1.0));
  transfers.Charge(TransferCategory::kPushGrads, 200, T(5.0));
  transfers.Charge(TransferCategory::kPullParams, 300, T(9.0));
  const auto timeline = transfers.Timeline(T(10.0), 11);
  ASSERT_EQ(timeline.size(), 11u);
  EXPECT_EQ(timeline[0].cumulative_bytes, 0u);
  EXPECT_EQ(timeline[1].cumulative_bytes, 100u);  // t=1
  EXPECT_EQ(timeline[5].cumulative_bytes, 300u);  // t=5
  EXPECT_EQ(timeline[10].cumulative_bytes, 600u);
  for (std::size_t i = 1; i < timeline.size(); ++i) {
    EXPECT_GE(timeline[i].cumulative_bytes, timeline[i - 1].cumulative_bytes);
  }
}

TEST(TransferTest, EmptyFractionIsZero) {
  TransferAccountant transfers;
  EXPECT_EQ(transfers.fraction(TransferCategory::kNotify), 0.0);
}

TEST(TransferTest, CategoryNames) {
  EXPECT_STREQ(TransferCategoryName(TransferCategory::kPullParams),
               "pull_params");
  EXPECT_STREQ(TransferCategoryName(TransferCategory::kReSync), "resync");
}

}  // namespace
}  // namespace specsync
