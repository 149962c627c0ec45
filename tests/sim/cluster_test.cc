// Integration tests for the full cluster simulation.
#include "sim/cluster.h"

#include <gtest/gtest.h>

#include <numeric>

#include "data/synthetic.h"
#include "models/softmax_regression.h"

namespace specsync {
namespace {

std::shared_ptr<const Model> TinyModel(std::uint64_t seed) {
  Rng rng(seed);
  ClassificationSpec spec;
  spec.num_examples = 400;
  spec.feature_dim = 8;
  spec.num_classes = 3;
  auto data = std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
  return std::make_shared<SoftmaxRegressionModel>(std::move(data),
                                                  SoftmaxRegressionConfig{});
}

ClusterSimConfig BaseConfig() {
  ClusterSimConfig config;
  config.num_workers = 4;
  config.num_servers = 2;
  config.batch_size = 16;
  config.eval_interval = Duration::Seconds(5.0);
  config.eval_subsample = 200;
  config.max_time = SimTime::FromSeconds(120.0);
  config.seed = 99;
  return config;
}

SpeedModel Speed(const ClusterSimConfig& config) {
  return SpeedModel::Homogeneous(Duration::Seconds(1.0), config.num_workers,
                                 0.1);
}

SimResult RunOnce(const ClusterSimConfig& config, std::uint64_t seed = 1) {
  ClusterSim sim(TinyModel(seed), std::make_shared<ConstantSchedule>(0.2),
                 Speed(config), config);
  return sim.Run();
}

TEST(ClusterSimTest, TrainingReducesLoss) {
  const SimResult result = RunOnce(BaseConfig());
  ASSERT_GE(result.trace.losses().size(), 2u);
  const double first = result.trace.losses().front().loss;
  const double last = result.trace.losses().back().loss;
  EXPECT_LT(last, first);
  EXPECT_GT(result.total_pushes, 100u);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

TEST(ClusterSimTest, DeterministicForFixedSeed) {
  const SimResult a = RunOnce(BaseConfig());
  const SimResult b = RunOnce(BaseConfig());
  EXPECT_EQ(a.total_pushes, b.total_pushes);
  EXPECT_DOUBLE_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.final_weights, b.final_weights);
  ASSERT_EQ(a.trace.pushes().size(), b.trace.pushes().size());
  for (std::size_t i = 0; i < a.trace.pushes().size(); ++i) {
    EXPECT_EQ(a.trace.pushes()[i].time, b.trace.pushes()[i].time);
    EXPECT_EQ(a.trace.pushes()[i].worker, b.trace.pushes()[i].worker);
  }
}

TEST(ClusterSimTest, DifferentSeedsDiffer) {
  ClusterSimConfig config = BaseConfig();
  const SimResult a = RunOnce(config);
  config.seed = 100;
  const SimResult b = RunOnce(config);
  EXPECT_NE(a.final_loss, b.final_loss);
}

TEST(ClusterSimTest, BspNeverExceedsStalenessZero) {
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::Bsp();
  const SimResult result = RunOnce(config);
  // Under BSP a worker's snapshot can miss at most the other m-1 workers'
  // pushes of the same round.
  for (const PushEvent& push : result.trace.pushes()) {
    EXPECT_LE(push.missed_updates, config.num_workers - 1);
  }
}

TEST(ClusterSimTest, SspBoundsProgressSkew) {
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::Ssp(2);
  const SimResult result = RunOnce(config);
  // Reconstruct per-worker progress over time from pushes; the running skew
  // (max - min completed) must never exceed s + 1.
  std::vector<std::uint64_t> completed(config.num_workers, 0);
  for (const PushEvent& push : result.trace.pushes()) {
    ++completed[push.worker];
    const auto [min_it, max_it] =
        std::minmax_element(completed.begin(), completed.end());
    EXPECT_LE(*max_it - *min_it, 3u);
  }
}

TEST(ClusterSimTest, AspRunsMorePushesThanBsp) {
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::Original();
  const SimResult asp = RunOnce(config);
  config.scheme = SchemeSpec::Bsp();
  const SimResult bsp = RunOnce(config);
  EXPECT_GT(asp.total_pushes, bsp.total_pushes);
}

TEST(ClusterSimTest, SpeculationAbortsAndRestarts) {
  ClusterSimConfig config = BaseConfig();
  SpeculationParams params;
  params.abort_time = Duration::Seconds(0.3);
  params.abort_rate = 0.25;  // 1 push from others triggers
  config.scheme = SchemeSpec::Cherrypick(params);
  const SimResult result = RunOnce(config);
  EXPECT_GT(result.total_aborts, 0u);
  EXPECT_EQ(result.total_aborts, result.scheduler_stats.resyncs_issued);
  EXPECT_GT(result.scheduler_stats.checks_performed, 0u);
  // Wasted compute per abort is bounded by the abort decision + message time,
  // which is well under one iteration.
  for (const AbortEvent& abort : result.trace.aborts()) {
    EXPECT_LT(abort.wasted_compute.seconds(), 1.5);
    EXPECT_GT(abort.wasted_compute.seconds(), 0.0);
  }
}

TEST(ClusterSimTest, AdaptiveTunerEngagesAfterFirstEpoch) {
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::Adaptive();
  const SimResult result = RunOnce(config);
  EXPECT_GT(result.scheduler_stats.retunes, 1u);
  EXPECT_GT(result.scheduler_stats.notifies_received, 100u);
}

TEST(ClusterSimTest, SpeculationReducesMeanStaleness) {
  // With bursty deliveries (stalls), SpecSync must reduce the mean number of
  // missed updates per push relative to plain ASP.
  ClusterSimConfig config = BaseConfig();
  config.num_workers = 8;
  config.max_time = SimTime::FromSeconds(300.0);
  config.stalls.enabled = true;
  config.stalls.mean_gap = Duration::Seconds(3.0);
  config.stalls.mean_duration = Duration::Seconds(0.5);

  auto mean_staleness = [](const SimResult& result) {
    double total = 0.0;
    for (const PushEvent& push : result.trace.pushes()) {
      total += static_cast<double>(push.missed_updates);
    }
    return total / static_cast<double>(result.trace.pushes().size());
  };

  config.scheme = SchemeSpec::Original();
  const double asp = mean_staleness(RunOnce(config));
  SpeculationParams params;
  params.abort_time = Duration::Seconds(0.4);
  params.abort_rate = 0.25;
  config.scheme = SchemeSpec::Cherrypick(params);
  const double spec = mean_staleness(RunOnce(config));
  EXPECT_LT(spec, asp);
}

TEST(ClusterSimTest, ConvergenceDetectionStopsEarly) {
  ClusterSimConfig config = BaseConfig();
  config.loss_target = 10.0;  // trivially met from the first evaluation
  config.convergence_patience = 3;
  const SimResult result = RunOnce(config);
  ASSERT_TRUE(result.convergence_time.has_value());
  EXPECT_LT(result.end_time, config.max_time);
  // Convergence time is the start of the streak = first evaluation.
  EXPECT_DOUBLE_EQ(result.convergence_time->seconds(), 5.0);
}

TEST(ClusterSimTest, EndOfRunSampleCanCompleteTheStreak) {
  ClusterSimConfig config = BaseConfig();
  config.loss_target = 10.0;  // every sample is below
  config.stop_on_convergence = false;
  const std::size_t samples = RunOnce(config).trace.losses().size();
  // The evaluations alone are one short of the patience; the end-of-run
  // sample completes the streak, as it does for TimeToTarget.
  config.convergence_patience = samples;
  const SimResult result = RunOnce(config);
  ASSERT_EQ(result.trace.losses().size(), samples);
  ASSERT_TRUE(result.convergence_time.has_value());
  EXPECT_EQ(*result.convergence_time, result.trace.losses().front().time);
  EXPECT_EQ(result.convergence_pushes,
            result.trace.losses().front().total_iterations);
  EXPECT_EQ(TimeToTarget(result.trace, config.loss_target, samples),
            result.convergence_time);
  config.convergence_patience = samples + 1;
  EXPECT_FALSE(RunOnce(config).convergence_time.has_value());
}

TEST(ClusterSimTest, MaxPushesCapStops) {
  ClusterSimConfig config = BaseConfig();
  config.max_pushes = 40;
  const SimResult result = RunOnce(config);
  EXPECT_EQ(result.total_pushes, 40u);
}

TEST(ClusterSimTest, TransferAccountingConsistency) {
  // A realistically sized model: control messages must be a negligible share
  // (paper Fig. 13); with a toy 27-parameter model they would not be.
  Rng rng(31);
  ClassificationSpec spec;
  spec.num_examples = 400;
  spec.feature_dim = 128;
  spec.num_classes = 10;
  auto data = std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
  auto model = std::make_shared<SoftmaxRegressionModel>(
      std::move(data), SoftmaxRegressionConfig{});
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::Adaptive();
  ClusterSim sim(model, std::make_shared<ConstantSchedule>(0.2),
                 Speed(config), config);
  const SimResult result = sim.Run();
  const auto& transfers = result.transfers;
  // Pulls: every pull moves the full dense model.
  const std::uint64_t pull_count = result.trace.pulls().size();
  EXPECT_EQ(transfers.bytes(TransferCategory::kPullParams),
            pull_count * model->param_dim() * sizeof(double));
  // Notify bytes: one control message per push.
  EXPECT_EQ(transfers.bytes(TransferCategory::kNotify),
            result.total_pushes * kControlMessageBytes);
  // Re-sync bytes: one control message per abort.
  EXPECT_EQ(transfers.bytes(TransferCategory::kReSync),
            result.total_aborts * kControlMessageBytes);
  // Control traffic is a negligible share (paper Fig. 13).
  EXPECT_LT(transfers.fraction(TransferCategory::kNotify) +
                transfers.fraction(TransferCategory::kReSync),
            0.01);
}

TEST(ClusterSimTest, NaiveWaitingSlowsPushRate) {
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::Original();
  const SimResult plain = RunOnce(config);
  config.scheme = SchemeSpec::NaiveWaiting(Duration::Seconds(0.5));
  const SimResult naive = RunOnce(config);
  // Delaying every pull by half an iteration cuts throughput by ~1/3.
  EXPECT_LT(naive.total_pushes, plain.total_pushes);
  EXPECT_GT(naive.total_pushes, plain.total_pushes / 2);
}

TEST(ClusterSimTest, SchemeDisplayNames) {
  EXPECT_EQ(SchemeSpec::Original().DisplayName(), "ASP");
  EXPECT_EQ(SchemeSpec::Bsp().DisplayName(), "BSP");
  EXPECT_EQ(SchemeSpec::Ssp(3).DisplayName(), "SSP(s=3)");
  EXPECT_EQ(SchemeSpec::Adaptive().DisplayName(), "ASP+SpecSync-Adaptive");
  SpeculationParams p;
  p.abort_time = Duration::Seconds(1.0);
  EXPECT_EQ(SchemeSpec::Cherrypick(p).DisplayName(),
            "ASP+SpecSync-Cherrypick");
  EXPECT_EQ(SchemeSpec::NaiveWaiting(Duration::Seconds(2.0)).DisplayName(),
            "ASP+NaiveWait(2s)");
}

}  // namespace
}  // namespace specsync
