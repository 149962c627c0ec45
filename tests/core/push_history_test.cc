#include "core/push_history.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace specsync {
namespace {

SimTime T(double s) { return SimTime::FromSeconds(s); }

TEST(PushHistoryTest, CountWindowIsHalfOpen) {
  PushHistory history(3);
  history.RecordPush(0, 0, T(1.0));
  history.RecordPush(1, 0, T(2.0));
  history.RecordPush(2, 0, T(3.0));
  // (1, 3]: excludes the push at exactly t=1, includes t=3.
  EXPECT_EQ(history.CountPushesInWindow(T(1.0), T(3.0)), 2u);
  EXPECT_EQ(history.CountPushesInWindow(T(0.0), T(3.0)), 3u);
  EXPECT_EQ(history.CountPushesInWindow(T(3.0), T(9.0)), 0u);
}

TEST(PushHistoryTest, CountExcludesWorker) {
  PushHistory history(2);
  history.RecordPush(0, 0, T(1.0));
  history.RecordPush(1, 0, T(2.0));
  history.RecordPush(0, 1, T(3.0));
  EXPECT_EQ(history.CountPushesInWindow(T(0.0), T(4.0), /*exclude=*/0), 1u);
  EXPECT_EQ(history.CountPushesInWindow(T(0.0), T(4.0), /*exclude=*/1), 2u);
}

TEST(PushHistoryTest, PushesInWindowReturnsRecords) {
  PushHistory history(2);
  history.RecordPush(0, 0, T(1.0));
  history.RecordPush(1, 3, T(2.0));
  const auto records = history.PushesInWindow(T(0.5), T(2.5));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].worker, 1u);
  EXPECT_EQ(records[1].iteration, 3u);
}

TEST(PushHistoryTest, OutOfOrderPushThrows) {
  PushHistory history(2);
  history.RecordPush(0, 0, T(5.0));
  EXPECT_THROW(history.RecordPush(1, 0, T(4.0)), CheckError);
}

TEST(PushHistoryTest, LastPullQueries) {
  PushHistory history(2);
  EXPECT_FALSE(history.LastPullBefore(0, T(10.0)).has_value());
  history.RecordPull(0, T(1.0));
  history.RecordPull(0, T(5.0));
  history.RecordPull(1, T(3.0));
  EXPECT_EQ(history.LastPullBefore(0, T(10.0)), T(5.0));
  EXPECT_EQ(history.LastPullBefore(0, T(4.0)), T(1.0));
  EXPECT_EQ(history.LastPullBefore(0, T(5.0)), T(5.0));  // at-or-before
  EXPECT_FALSE(history.LastPullBefore(0, T(0.5)).has_value());
}

TEST(PushHistoryTest, TrimDropsOldRecords) {
  PushHistory history(1);
  history.RecordPush(0, 0, T(1.0));
  history.RecordPush(0, 1, T(10.0));
  history.RecordPull(0, T(1.0));
  history.RecordPull(0, T(10.0));
  history.Trim(T(12.0), Duration::Seconds(5.0));  // cutoff at t=7
  EXPECT_EQ(history.push_count(), 1u);
  EXPECT_EQ(history.pushes()[0].time, T(10.0));
  EXPECT_EQ(history.LastPullBefore(0, T(5.0)), std::nullopt);
  EXPECT_EQ(history.LastPullBefore(0, T(12.0)), T(10.0));
}

TEST(PushHistoryTest, InvalidWorkerThrows) {
  PushHistory history(2);
  EXPECT_THROW(history.RecordPush(2, 0, T(1.0)), CheckError);
  EXPECT_THROW(history.RecordPull(5, T(1.0)), CheckError);
  EXPECT_THROW(history.LastPullBefore(2, T(1.0)), CheckError);
}

}  // namespace
}  // namespace specsync
