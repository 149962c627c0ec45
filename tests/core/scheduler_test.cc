// Tests for the centralized SpecSync scheduler (paper Algorithm 2).
#include "core/scheduler.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace specsync {
namespace {

SimTime T(double s) { return SimTime::FromSeconds(s); }
Duration D(double s) { return Duration::Seconds(s); }

SchedulerConfig Config(std::size_t m, Duration abort_time, double abort_rate) {
  SchedulerConfig config;
  config.num_workers = m;
  config.initial_params.abort_time = abort_time;
  config.initial_params.abort_rate = abort_rate;
  config.default_span = D(10.0);
  return config;
}

// Fixed policy that keeps whatever initial params were set.
std::unique_ptr<SpeculationPolicy> Keep(Duration abort_time,
                                        double abort_rate) {
  SpeculationParams params;
  params.abort_time = abort_time;
  params.abort_rate = abort_rate;
  return std::make_unique<FixedSpeculationPolicy>(params);
}

// Fixed policy that never speculates: SpeculationParams{} every epoch.
std::unique_ptr<SpeculationPolicy> NoSpeculation() {
  return std::make_unique<FixedSpeculationPolicy>(SpeculationParams{});
}

TEST(SchedulerTest, NotifyRequestsCheckAfterAbortTime) {
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.5), Keep(D(2.0), 0.5));
  const auto request = scheduler.HandleNotify(0, 0, T(10.0));
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->delay, D(2.0));
}

TEST(SchedulerTest, NoCheckWhenSpeculationDisabled) {
  SpecSyncScheduler scheduler(Config(4, Duration::Zero(), 0.0),
                              NoSpeculation());
  EXPECT_FALSE(scheduler.HandleNotify(0, 0, T(1.0)).has_value());
}

TEST(SchedulerTest, ResyncIssuedWhenEnoughPushesInWindow) {
  // m=4, rate=0.5: threshold = 2 pushes from others within the window.
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.5), Keep(D(2.0), 0.5));
  const auto request = scheduler.HandleNotify(0, 0, T(0.0));
  ASSERT_TRUE(request.has_value());
  scheduler.HandleNotify(1, 0, T(0.5));
  scheduler.HandleNotify(2, 0, T(1.0));
  EXPECT_TRUE(scheduler.HandleCheckTimer(0, request->token, T(2.0)));
  EXPECT_EQ(scheduler.stats().resyncs_issued, 1u);
}

TEST(SchedulerTest, NoResyncBelowThreshold) {
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.5), Keep(D(2.0), 0.5));
  const auto request = scheduler.HandleNotify(0, 0, T(0.0));
  scheduler.HandleNotify(1, 0, T(0.5));  // only one push from others
  EXPECT_FALSE(scheduler.HandleCheckTimer(0, request->token, T(2.0)));
  EXPECT_EQ(scheduler.stats().resyncs_issued, 0u);
  EXPECT_EQ(scheduler.stats().checks_performed, 1u);
}

TEST(SchedulerTest, OwnPushesDoNotCount) {
  // Worker 0's window must not count worker 0's own (hypothetical) pushes.
  SpecSyncScheduler scheduler(Config(2, D(5.0), 0.5), Keep(D(5.0), 0.5));
  const auto request = scheduler.HandleNotify(0, 0, T(0.0));
  // Threshold = 1 push from others. Worker 0 pushes again inside the window
  // (possible if the window outlives the next iteration).
  scheduler.HandleNotify(0, 1, T(1.0));
  EXPECT_FALSE(scheduler.HandleCheckTimer(0, request->token, T(5.0)));
}

TEST(SchedulerTest, StaleTokenSkipped) {
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.25), Keep(D(2.0), 0.25));
  const auto first = scheduler.HandleNotify(0, 0, T(0.0));
  const auto second = scheduler.HandleNotify(0, 1, T(1.0));
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  scheduler.HandleNotify(1, 0, T(1.5));
  scheduler.HandleNotify(2, 0, T(1.6));
  // The first window was superseded by the second notify.
  EXPECT_FALSE(scheduler.HandleCheckTimer(0, first->token, T(2.0)));
  EXPECT_EQ(scheduler.stats().stale_checks_skipped, 1u);
  // The second window is live and sees both pushes.
  EXPECT_TRUE(scheduler.HandleCheckTimer(0, second->token, T(3.0)));
}

TEST(SchedulerTest, CheckConsumesWindow) {
  SpecSyncScheduler scheduler(Config(4, D(2.0), 0.25), Keep(D(2.0), 0.25));
  const auto request = scheduler.HandleNotify(0, 0, T(0.0));
  scheduler.HandleNotify(1, 0, T(0.5));
  EXPECT_TRUE(scheduler.HandleCheckTimer(0, request->token, T(2.0)));
  // Firing the same token twice must not re-issue.
  EXPECT_FALSE(scheduler.HandleCheckTimer(0, request->token, T(2.1)));
}

TEST(SchedulerTest, EpochEndsWhenAllWorkersPushed) {
  SpecSyncScheduler scheduler(Config(3, D(1.0), 0.5), Keep(D(1.0), 0.5));
  EXPECT_EQ(scheduler.epoch(), 0u);
  scheduler.HandleNotify(0, 0, T(1.0));
  scheduler.HandleNotify(1, 0, T(2.0));
  EXPECT_EQ(scheduler.epoch(), 0u);
  scheduler.HandleNotify(2, 0, T(3.0));
  EXPECT_EQ(scheduler.epoch(), 1u);
  EXPECT_EQ(scheduler.stats().retunes, 1u);
  // Second epoch needs all three again.
  scheduler.HandleNotify(0, 1, T(4.0));
  scheduler.HandleNotify(0, 2, T(5.0));
  EXPECT_EQ(scheduler.epoch(), 1u);
  scheduler.HandleNotify(1, 1, T(6.0));
  scheduler.HandleNotify(2, 1, T(7.0));
  EXPECT_EQ(scheduler.epoch(), 2u);
}

// Policy that records the inputs it was handed.
class RecordingPolicy final : public SpeculationPolicy {
 public:
  explicit RecordingPolicy(std::vector<TuningInputs>* sink) : sink_(sink) {}
  std::string name() const override { return "recording"; }
  SpeculationParams OnEpochEnd(const TuningInputs& inputs) override {
    sink_->push_back(inputs);
    return {};
  }

 private:
  std::vector<TuningInputs>* sink_;
};

TEST(SchedulerTest, TuningInputsCoverFinishedEpoch) {
  std::vector<TuningInputs> seen;
  SchedulerConfig config = Config(2, D(1.0), 0.5);
  SpecSyncScheduler scheduler(config,
                              std::make_unique<RecordingPolicy>(&seen));
  scheduler.HandlePull(0, T(0.1));
  scheduler.HandlePull(1, T(0.2));
  scheduler.HandleNotify(0, 0, T(5.0));
  scheduler.HandlePull(0, T(5.1));
  scheduler.HandleNotify(1, 0, T(6.0));  // epoch 0 ends here
  ASSERT_EQ(seen.size(), 1u);
  const TuningInputs& inputs = seen[0];
  EXPECT_EQ(inputs.num_workers, 2u);
  EXPECT_EQ(inputs.finished_epoch, 0u);
  EXPECT_EQ(inputs.epoch_end, T(6.0));
  ASSERT_EQ(inputs.pushes.size(), 2u);
  EXPECT_EQ(inputs.pushes[0].second, 0u);
  ASSERT_TRUE(inputs.last_pull[0].has_value());
  EXPECT_EQ(*inputs.last_pull[0], T(5.1));
  EXPECT_EQ(inputs.iteration_span.size(), 2u);
}

TEST(SchedulerTest, SpanEstimateTracksPushGaps) {
  SchedulerConfig config = Config(2, Duration::Zero(), 0.0);
  config.span_ewma_alpha = 1.0;  // use latest gap directly
  config.default_span = D(99.0);
  SpecSyncScheduler scheduler(config, NoSpeculation());
  scheduler.HandleNotify(0, 0, T(10.0));
  EXPECT_DOUBLE_EQ(scheduler.iteration_spans()[0].seconds(), 99.0);
  scheduler.HandleNotify(0, 1, T(14.0));
  EXPECT_DOUBLE_EQ(scheduler.iteration_spans()[0].seconds(), 4.0);
  scheduler.HandleNotify(0, 2, T(20.0));
  EXPECT_DOUBLE_EQ(scheduler.iteration_spans()[0].seconds(), 6.0);
}

TEST(SchedulerTest, StatsCountNotifies) {
  SpecSyncScheduler scheduler(Config(2, D(1.0), 0.5), Keep(D(1.0), 0.5));
  scheduler.HandleNotify(0, 0, T(1.0));
  scheduler.HandleNotify(1, 0, T(2.0));
  EXPECT_EQ(scheduler.stats().notifies_received, 2u);
}

TEST(SchedulerTest, InvalidConfigThrows) {
  SchedulerConfig bad;
  bad.num_workers = 0;
  EXPECT_THROW(SpecSyncScheduler(bad, NoSpeculation()), CheckError);
  SchedulerConfig no_policy = Config(2, D(1.0), 0.5);
  EXPECT_THROW(SpecSyncScheduler(no_policy, nullptr), CheckError);
}

}  // namespace
}  // namespace specsync
