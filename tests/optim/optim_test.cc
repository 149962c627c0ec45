// Tests for learning-rate schedules and the SGD applier.
#include <gtest/gtest.h>

#include "common/check.h"
#include "optim/lr_schedule.h"
#include "optim/sgd.h"

namespace specsync {
namespace {

TEST(LrScheduleTest, Constant) {
  ConstantSchedule schedule(0.1);
  EXPECT_DOUBLE_EQ(schedule.Rate(0), 0.1);
  EXPECT_DOUBLE_EQ(schedule.Rate(1000), 0.1);
  EXPECT_THROW(ConstantSchedule(0.0), CheckError);
}

TEST(LrScheduleTest, StepDecayMatchesPaperShape) {
  // Paper Sec. VI-A: 0.05 decayed at epochs 200 and 250.
  StepDecaySchedule schedule(0.05, {200, 250}, 0.1);
  EXPECT_DOUBLE_EQ(schedule.Rate(0), 0.05);
  EXPECT_DOUBLE_EQ(schedule.Rate(199), 0.05);
  EXPECT_DOUBLE_EQ(schedule.Rate(200), 0.005);
  EXPECT_DOUBLE_EQ(schedule.Rate(249), 0.005);
  EXPECT_NEAR(schedule.Rate(250), 0.0005, 1e-12);
}

TEST(LrScheduleTest, StepDecayRequiresSortedBoundaries) {
  EXPECT_THROW(StepDecaySchedule(0.1, {250, 200}, 0.1), CheckError);
}

TEST(LrScheduleTest, InverseSqrt) {
  InverseSqrtSchedule schedule(1.0);
  EXPECT_DOUBLE_EQ(schedule.Rate(0), 1.0);
  EXPECT_DOUBLE_EQ(schedule.Rate(3), 0.5);
}

TEST(SgdApplierTest, BasicStep) {
  auto schedule = std::make_shared<ConstantSchedule>(0.5);
  SgdApplier applier(schedule);
  Gradient g = Gradient::Dense(2);
  g.dense()[0] = 1.0;
  g.dense()[1] = -2.0;
  std::vector<double> params{10.0, 10.0};
  applier.Apply(g, 0, params);
  EXPECT_DOUBLE_EQ(params[0], 9.5);
  EXPECT_DOUBLE_EQ(params[1], 11.0);
}

TEST(SgdApplierTest, UsesEpochRate) {
  auto schedule = std::make_shared<StepDecaySchedule>(
      1.0, std::vector<EpochId>{10}, 0.1);
  SgdApplier applier(schedule);
  Gradient g = Gradient::Dense(1);
  g.dense()[0] = 1.0;
  std::vector<double> params{0.0};
  applier.Apply(g, 0, params);
  EXPECT_DOUBLE_EQ(params[0], -1.0);
  applier.Apply(g, 10, params);
  EXPECT_DOUBLE_EQ(params[0], -1.1);
  EXPECT_DOUBLE_EQ(applier.Rate(10), 0.1);
}

TEST(SgdApplierTest, DenseClipping) {
  auto schedule = std::make_shared<ConstantSchedule>(1.0);
  SgdApplier applier(schedule, SgdConfig{.clip = 0.5});
  Gradient g = Gradient::Dense(2);
  g.dense()[0] = 10.0;
  g.dense()[1] = -0.25;
  std::vector<double> params{0.0, 0.0};
  applier.Apply(g, 0, params);
  EXPECT_DOUBLE_EQ(params[0], -0.5);   // clipped
  EXPECT_DOUBLE_EQ(params[1], 0.25);   // untouched
}

TEST(SgdApplierTest, SparseClipping) {
  auto schedule = std::make_shared<ConstantSchedule>(1.0);
  SgdApplier applier(schedule, SgdConfig{.clip = 1.0});
  Gradient g = Gradient::Sparse();
  g.sparse().Add(0, 5.0);
  g.sparse().Add(2, 0.5);
  std::vector<double> params{0.0, 0.0, 0.0};
  applier.Apply(g, 0, params);
  EXPECT_DOUBLE_EQ(params[0], -1.0);
  EXPECT_DOUBLE_EQ(params[1], 0.0);
  EXPECT_DOUBLE_EQ(params[2], -0.5);
}

TEST(SgdApplierTest, ClippingDoesNotMutateGradient) {
  auto schedule = std::make_shared<ConstantSchedule>(1.0);
  SgdApplier applier(schedule, SgdConfig{.clip = 0.1});
  Gradient g = Gradient::Dense(1);
  g.dense()[0] = 5.0;
  std::vector<double> params{0.0};
  applier.Apply(g, 0, params);
  EXPECT_DOUBLE_EQ(g.dense()[0], 5.0);
}

TEST(SgdApplierTest, SparseOutOfRangeThrows) {
  auto schedule = std::make_shared<ConstantSchedule>(1.0);
  SgdApplier applier(schedule, SgdConfig{.clip = 1.0});
  Gradient g = Gradient::Sparse();
  g.sparse().Add(9, 1.0);
  std::vector<double> params{0.0};
  EXPECT_THROW(applier.Apply(g, 0, params), CheckError);
}

TEST(SgdApplierTest, SparseSpanOverloadMatchesSparseUpdate) {
  auto schedule = std::make_shared<ConstantSchedule>(0.5);
  SgdApplier applier(schedule, SgdConfig{.clip = 3.0});
  Gradient g = Gradient::Sparse();
  g.sparse().Add(4, 5.0);
  g.sparse().Add(1, -2.0);
  g.sparse().Add(9, 1.0);  // outside the slice [1, 6): skipped
  g.sparse().Add(4, 0.25);
  std::vector<double> a{1.0, 2.0, 3.0, 4.0, 5.0};
  std::vector<double> b = a;
  EXPECT_EQ(applier.ApplySparseSlice(g.sparse(), 0, 1, a), 3u);
  EXPECT_EQ(applier.ApplySparseSlice(g.sparse().indices(),
                                     g.sparse().values(), 0, 1, b),
            3u);
  EXPECT_EQ(a, b);
}

TEST(SgdApplierTest, SparseSpanOverloadRejectsUnpairedEntries) {
  auto schedule = std::make_shared<ConstantSchedule>(1.0);
  SgdApplier applier(schedule);
  const std::vector<std::uint64_t> indices{0, 1};
  const std::vector<double> values{1.0};
  std::vector<double> params{0.0, 0.0};
  EXPECT_THROW(applier.ApplySparseSlice(indices, values, 0, 0, params),
               CheckError);
  EXPECT_EQ(params, (std::vector<double>{0.0, 0.0}));
}

TEST(SgdApplierTest, NullScheduleThrows) {
  EXPECT_THROW(SgdApplier(nullptr), CheckError);
}

}  // namespace
}  // namespace specsync
