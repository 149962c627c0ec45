// Sim-level behavior of the per-shard and dynamic consistency schemes: the
// gating actually constrains the event schedule, the new stats surface in
// SimResult, DSSP retunes land in the audit log, and attaching observability
// never perturbs the trace (the record-only contract extended to the new
// controllers).
#include <algorithm>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "models/softmax_regression.h"
#include "obs/obs.h"
#include "sim/cluster.h"
#include "trace/trace.h"

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

// One worker 3x slower than the rest: the straggler regime the dynamic
// bound is tuned for.
SpeedModel StragglerSpeed(std::size_t num_workers) {
  std::vector<double> multipliers(num_workers, 1.0);
  multipliers[0] = 3.0;
  return SpeedModel(Duration::Seconds(1.0), std::move(multipliers), 0.1);
}

SimResult RunOnce(const ClusterSimConfig& config, bool straggler = false,
                  std::uint64_t seed = 1) {
  ClusterSim sim(TinyModel(seed), std::make_shared<ConstantSchedule>(0.2),
                 straggler ? StragglerSpeed(config.num_workers)
                           : SpeedModel::Homogeneous(Duration::Seconds(1.0),
                                                     config.num_workers, 0.1),
                 config);
  return sim.Run();
}

TEST(ConsistencySimTest, PerShardSspBoundsProgressSkew) {
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::PerShardSsp(2);
  const SimResult result = RunOnce(config);
  // Dense softmax gradients touch every shard, so learned write sets are
  // global and per-shard SSP enforces the global skew bound: running
  // completed-count spread never exceeds s + 1.
  std::vector<std::uint64_t> completed(config.num_workers, 0);
  for (const PushEvent& push : result.trace.pushes()) {
    ++completed[push.worker];
    const auto [min_it, max_it] =
        std::minmax_element(completed.begin(), completed.end());
    EXPECT_LE(*max_it - *min_it, 3u);
  }
  EXPECT_GT(result.total_pushes, 100u);
}

TEST(ConsistencySimTest, PerShardGatingBlocksUnderStraggler) {
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::PerShardSsp(1);
  const SimResult result = RunOnce(config, /*straggler=*/true);
  EXPECT_GT(result.consistency.blocks, 0u);
  EXPECT_GT(result.consistency.blocked_seconds, 0.0);
  EXPECT_EQ(result.consistency.final_staleness, 1u);
  EXPECT_EQ(result.consistency.retunes, 0u);  // static bound
}

TEST(ConsistencySimTest, AspReportsNoConsistencyActivity) {
  const SimResult result = RunOnce(BaseConfig());
  EXPECT_EQ(result.consistency.blocks, 0u);
  EXPECT_EQ(result.consistency.blocked_seconds, 0.0);
  EXPECT_EQ(result.consistency.retunes, 0u);
}

TEST(ConsistencySimTest, PerShardSspIsDeterministic) {
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::PerShardSsp(1);
  const SimResult a = RunOnce(config, /*straggler=*/true);
  const SimResult b = RunOnce(config, /*straggler=*/true);
  EXPECT_EQ(TraceDigest(a.trace), TraceDigest(b.trace));
  EXPECT_EQ(a.consistency.blocks, b.consistency.blocks);
  EXPECT_DOUBLE_EQ(a.consistency.blocked_seconds,
                   b.consistency.blocked_seconds);
}

TEST(ConsistencySimTest, DynamicSspRetunesUnderStraggler) {
  ClusterSimConfig config = BaseConfig();
  config.max_time = SimTime::FromSeconds(300.0);
  DynamicSspConfig dssp;
  dssp.initial_staleness = 0;  // forced to adapt: BSP-strict start
  config.scheme = SchemeSpec::DynamicSsp(dssp);
  const SimResult result = RunOnce(config, /*straggler=*/true);
  // A 3x straggler against a bound of 0 must provoke retunes, and the bound
  // in force at the end should have moved off the floor.
  EXPECT_GT(result.consistency.retunes, 0u);
  EXPECT_GT(result.consistency.final_staleness, 0u);
  EXPECT_LE(result.consistency.final_staleness, dssp.max_staleness);
}

TEST(ConsistencySimTest, DynamicSspRetunesAreAudited) {
  ClusterSimConfig config = BaseConfig();
  config.max_time = SimTime::FromSeconds(300.0);
  DynamicSspConfig dssp;
  dssp.initial_staleness = 0;
  config.scheme = SchemeSpec::DynamicSsp(dssp);
  obs::ObsContext ctx;
  config.obs = &ctx;
  const SimResult result = RunOnce(config, /*straggler=*/true);
  ASSERT_GT(result.consistency.retunes, 0u);
  // Every bound adjustment leaves exactly one staleness-kind retune record.
  std::size_t staleness_records = 0;
  for (const obs::RetuneRecord& record : ctx.audit.retunes()) {
    if (record.kind != obs::RetuneKind::kStaleness) continue;
    ++staleness_records;
    EXPECT_GT(record.straggler_ratio, 1.0);
    EXPECT_GT(record.epoch_pushes, 0u);
  }
  EXPECT_EQ(staleness_records, result.consistency.retunes);
  EXPECT_EQ(ctx.metrics.gauge("sim.consistency_final_staleness").value(),
            static_cast<double>(result.consistency.final_staleness));
}

TEST(ConsistencySimTest, ObservabilityDoesNotPerturbGatedRuns) {
  for (const SchemeSpec& scheme :
       {SchemeSpec::PerShardSsp(1), SchemeSpec::DynamicSsp()}) {
    ClusterSimConfig config = BaseConfig();
    config.scheme = scheme;
    const SimResult plain = RunOnce(config, /*straggler=*/true);
    obs::ObsContext ctx;
    config.obs = &ctx;
    const SimResult observed = RunOnce(config, /*straggler=*/true);
    EXPECT_EQ(TraceDigest(plain.trace), TraceDigest(observed.trace))
        << scheme.DisplayName();
    EXPECT_EQ(plain.consistency.blocks, observed.consistency.blocks);
    EXPECT_EQ(plain.consistency.retunes, observed.consistency.retunes);
  }
}

TEST(ConsistencySimTest, DynamicBoundRelievesStragglerStalls) {
  // The adaptive bound's reason to exist: under a straggler, static SSP(0)
  // blocks the fast workers constantly; DSSP starting from the same bound
  // widens it and spends less virtual time gated.
  ClusterSimConfig config = BaseConfig();
  config.max_time = SimTime::FromSeconds(300.0);
  config.scheme = SchemeSpec::Ssp(0);
  const SimResult ssp = RunOnce(config, /*straggler=*/true);
  DynamicSspConfig dssp;
  dssp.initial_staleness = 0;
  config.scheme = SchemeSpec::DynamicSsp(dssp);
  const SimResult dynamic = RunOnce(config, /*straggler=*/true);
  EXPECT_LT(dynamic.consistency.blocked_seconds,
            ssp.consistency.blocked_seconds);
  EXPECT_GT(dynamic.total_pushes, ssp.total_pushes);
}

TEST(ConsistencySimTest, CrashExcusesGatedPeersUnderPerShardSsp) {
  // Worker 2 crashes for a window mid-run. Under PSSP the remaining workers
  // must keep making progress while it is down (the sim excuses the corpse
  // via OnWorkerDown), and the run must not wedge after it rejoins.
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::PerShardSsp(1);
  config.max_time = SimTime::FromSeconds(200.0);
  CrashEvent crash;
  crash.worker = 2;
  crash.at = SimTime::FromSeconds(40.0);
  crash.rejoin = SimTime::FromSeconds(120.0);
  config.faults.crashes.push_back(crash);
  const SimResult result = RunOnce(config, /*straggler=*/false);
  // Pushes continue during the outage window.
  std::uint64_t pushes_in_window = 0;
  for (const PushEvent& push : result.trace.pushes()) {
    if (push.time > SimTime::FromSeconds(50.0) &&
        push.time < SimTime::FromSeconds(110.0)) {
      ++pushes_in_window;
    }
  }
  EXPECT_GT(pushes_in_window, 10u);
  // And the rejoined worker catches up: everyone keeps pushing afterwards.
  std::vector<std::uint64_t> tail_pushes(config.num_workers, 0);
  for (const PushEvent& push : result.trace.pushes()) {
    if (push.time > SimTime::FromSeconds(130.0)) ++tail_pushes[push.worker];
  }
  for (WorkerId w = 0; w < config.num_workers; ++w) {
    EXPECT_GT(tail_pushes[w], 0u) << "worker " << w;
  }
}

TEST(ConsistencySimTest, PermanentCrashUnderBspDoesNotStallSurvivors) {
  // Worker 2 dies for good at t=30 s. BSP excuses it from the barrier, as it
  // is excused in the runtime: the survivors keep pushing to the end of the
  // run instead of waiting on the corpse until max_time.
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::Bsp();
  config.faults.crashes.push_back(
      CrashEvent{2, SimTime::FromSeconds(30.0), std::nullopt});
  const SimResult result = RunOnce(config);
  std::vector<std::uint64_t> late_pushes(config.num_workers, 0);
  for (const PushEvent& push : result.trace.pushes()) {
    if (push.time > SimTime::FromSeconds(60.0)) ++late_pushes[push.worker];
  }
  EXPECT_EQ(late_pushes[2], 0u);
  for (WorkerId w : {0u, 1u, 3u}) {
    EXPECT_GT(late_pushes[w], 40u) << "worker " << w;
  }
  EXPECT_EQ(result.fault_stats.crashes, 1u);
}

TEST(ConsistencySimTest, CrashAndRejoinUnderSspHoldsTheBoundAcrossRejoin) {
  // Worker 2 is down from t=40 s to t=80 s. While it is down the others run
  // on; once it is back at its old progress they wait for it again, so every
  // iteration started after the rejoin obeys t <= min completed + s over all
  // four workers.
  constexpr std::uint64_t kStaleness = 1;
  const SimTime crash_at = SimTime::FromSeconds(40.0);
  const SimTime rejoin_at = SimTime::FromSeconds(80.0);
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::Ssp(kStaleness);
  config.max_time = SimTime::FromSeconds(200.0);
  config.faults.crashes.push_back(CrashEvent{2, crash_at, rejoin_at});
  const SimResult result = RunOnce(config);

  std::uint64_t pushes_while_down = 0;
  std::vector<std::uint64_t> completed(config.num_workers, 0);
  // An iteration admitted before the rejoin may push after it: skip each
  // worker's first push past the rejoin.
  std::vector<char> seen_after_rejoin(config.num_workers, 0);
  std::vector<std::uint64_t> tail_pushes(config.num_workers, 0);
  for (const PushEvent& push : result.trace.pushes()) {
    if (push.time > crash_at + Duration::Seconds(5.0) &&
        push.time < rejoin_at) {
      ++pushes_while_down;
    }
    if (push.time > rejoin_at) {
      if (seen_after_rejoin[push.worker]) {
        const std::uint64_t min_completed =
            *std::min_element(completed.begin(), completed.end());
        EXPECT_LE(push.iteration, min_completed + kStaleness)
            << "worker " << push.worker << " at " << push.time;
      }
      seen_after_rejoin[push.worker] = 1;
      ++tail_pushes[push.worker];
    }
    completed[push.worker] = push.iteration + 1;
  }
  EXPECT_GT(pushes_while_down, 60u);
  for (WorkerId w = 0; w < config.num_workers; ++w) {
    EXPECT_GT(tail_pushes[w], 20u) << "worker " << w;
  }
}

TEST(ConsistencySimTest, SchemeDisplayNames) {
  EXPECT_EQ(SchemeSpec::PerShardSsp(2).DisplayName(), "PSSP(s=2)");
  EXPECT_EQ(SchemeSpec::DynamicSsp().DisplayName(), "DSSP(s0=3)");
}

}  // namespace
}  // namespace specsync
