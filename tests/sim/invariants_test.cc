// Property-style invariants checked across every synchronization scheme:
// whatever the scheme, the PS protocol's bookkeeping must stay coherent. The
// same configs also pin the static schemes' trace digests.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "data/synthetic.h"
#include "models/softmax_regression.h"
#include "sim/cluster.h"
#include "trace/trace.h"

namespace specsync {
namespace {

std::shared_ptr<const Model> SmallModel() {
  Rng rng(5);
  ClassificationSpec spec;
  spec.num_examples = 300;
  spec.feature_dim = 8;
  spec.num_classes = 3;
  auto data = std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
  return std::make_shared<SoftmaxRegressionModel>(std::move(data),
                                                  SoftmaxRegressionConfig{});
}

struct SchemeCase {
  std::string name;
  SchemeSpec scheme;
  bool stalls = false;
};

// gtest's default printer dumps the struct's raw bytes, std::string heap
// pointer included, so the listed test names (which ctest copies) would
// change from one process to the next. Print the case by its name instead.
void PrintTo(const SchemeCase& scheme_case, std::ostream* os) {
  *os << scheme_case.name;
}

std::vector<SchemeCase> AllSchemes() {
  SpeculationParams cherry;
  cherry.abort_time = Duration::Seconds(0.3);
  cherry.abort_rate = 0.25;
  return {
      {"asp", SchemeSpec::Original(), false},
      {"asp_stalls", SchemeSpec::Original(), true},
      {"bsp", SchemeSpec::Bsp(), false},
      {"ssp1", SchemeSpec::Ssp(1), false},
      {"ssp5", SchemeSpec::Ssp(5), true},
      {"naive", SchemeSpec::NaiveWaiting(Duration::Seconds(0.4)), false},
      {"cherry", SchemeSpec::Cherrypick(cherry), true},
      {"adaptive", SchemeSpec::Adaptive(), true},
  };
}

class SchemeInvariantsTest : public ::testing::TestWithParam<SchemeCase> {};

ClusterSimConfig InvariantsConfig(const SchemeSpec& scheme, bool stalls) {
  ClusterSimConfig config;
  config.num_workers = 6;
  config.num_servers = 3;
  config.batch_size = 8;
  config.scheme = scheme;
  config.eval_interval = Duration::Seconds(10.0);
  config.eval_subsample = 100;
  config.max_time = SimTime::FromSeconds(150.0);
  config.seed = 77;
  if (stalls) {
    config.stalls.enabled = true;
    config.stalls.mean_gap = Duration::Seconds(4.0);
    config.stalls.mean_duration = Duration::Seconds(0.6);
  }
  return config;
}

SimResult RunInvariantsSim(const ClusterSimConfig& config) {
  ClusterSim sim(SmallModel(), std::make_shared<ConstantSchedule>(0.1),
                 SpeedModel::Homogeneous(Duration::Seconds(1.0),
                                         config.num_workers, 0.15),
                 config);
  return sim.Run();
}

TEST_P(SchemeInvariantsTest, TraceInvariantsHold) {
  const SchemeCase& scheme_case = GetParam();
  const ClusterSimConfig config =
      InvariantsConfig(scheme_case.scheme, scheme_case.stalls);
  const SimResult result = RunInvariantsSim(config);

  ASSERT_GT(result.total_pushes, 0u);

  // 1. Push times are globally non-decreasing; store versions are exactly
  //    1, 2, 3, ... in arrival order.
  SimTime previous = SimTime::Zero();
  std::uint64_t expected_version = 0;
  for (const PushEvent& push : result.trace.pushes()) {
    EXPECT_GE(push.time, previous);
    previous = push.time;
    EXPECT_EQ(push.version, ++expected_version);
  }

  // 2. Per-worker iteration ids are 0, 1, 2, ... in order.
  std::map<WorkerId, IterationId> next_iteration;
  for (const PushEvent& push : result.trace.pushes()) {
    EXPECT_EQ(push.iteration, next_iteration[push.worker]);
    next_iteration[push.worker] = push.iteration + 1;
  }

  // 3. Every iteration begins with a pull: a worker's k-th push is preceded
  //    by at least k pulls (aborted iterations add extra pulls).
  for (WorkerId w = 0; w < config.num_workers; ++w) {
    EXPECT_GE(result.trace.PullTimes(w).size(),
              result.trace.PushTimes(w).size());
  }

  // 4. missed_updates is bounded by the push's own version minus one (it
  //    cannot miss more updates than have ever been applied).
  for (const PushEvent& push : result.trace.pushes()) {
    EXPECT_LT(push.missed_updates, push.version);
  }

  // 5. Aborts only happen under speculation, and wasted compute is positive
  //    and below one (jittered) iteration.
  if (scheme_case.scheme.speculation == SpeculationMode::kNone) {
    EXPECT_EQ(result.total_aborts, 0u);
  }
  for (const AbortEvent& abort : result.trace.aborts()) {
    EXPECT_GT(abort.wasted_compute, Duration::Zero());
    EXPECT_LT(abort.wasted_compute, Duration::Seconds(3.0));
  }

  // 6. Transfer ledger matches the trace: one full-model pull per PullEvent,
  //    one gradient push per PushEvent.
  EXPECT_EQ(result.transfers.bytes(TransferCategory::kPullParams),
            result.trace.pulls().size() * SmallModel()->param_dim() *
                sizeof(double));
  EXPECT_EQ(result.transfers.bytes(TransferCategory::kPushGrads),
            result.total_pushes * SmallModel()->param_dim() * sizeof(double));

  // 7. Loss samples are finite and timestamps increase.
  SimTime last_eval = SimTime::Zero();
  for (const LossSample& sample : result.trace.losses()) {
    EXPECT_TRUE(std::isfinite(sample.loss));
    EXPECT_GE(sample.time, last_eval);
    last_eval = sample.time;
  }

  // 8. Final weights are finite (no scheme may blow up at this step size).
  EXPECT_TRUE(AllFinite(result.final_weights));
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeInvariantsTest, ::testing::ValuesIn(AllSchemes()),
    [](const ::testing::TestParamInfo<SchemeCase>& info) {
      return info.param.name;
    });

// Golden trace digests for the static schemes (BSP and SSP) on the configs
// above: each pins the FNV digest of the run's ordered pull/push/loss trace,
// so any change to how BSP/SSP gate iteration starts shows up as a mismatch.
// Fault-free, dense per-shard SSP with every write set frozen to all shards
// is exactly global SSP, and data/control drops and duplicates change no
// worker's liveness, so these digests were captured on the scalar SSP
// controller that preceded the per-shard one and hold unchanged on it.
// Crashes are not covered: a crashed worker is excused from the bound (see
// consistency_sim_test). To regenerate after an intentional behavior change,
// copy the "Actual" digest from the failure message.
constexpr std::uint64_t kBspDigest = 15026294904235520547ULL;
constexpr std::uint64_t kSsp1Digest = 5278174934112898985ULL;
constexpr std::uint64_t kSsp5StallsDigest = 5540474987432216393ULL;
constexpr std::uint64_t kBspLossyDigest = 10570836635959152783ULL;

// The pin says more when the bound actually held workers back.
void ExpectGated(const SimResult& result) {
  EXPECT_GT(result.total_pushes, 100u);
  EXPECT_GT(result.consistency.blocks, 0u);
}

TEST(StaticSchemeGoldenTest, BspTraceDigestIsPinned) {
  const SimResult result =
      RunInvariantsSim(InvariantsConfig(SchemeSpec::Bsp(), false));
  ExpectGated(result);
  EXPECT_EQ(TraceDigest(result.trace), kBspDigest);
}

TEST(StaticSchemeGoldenTest, Ssp1TraceDigestIsPinned) {
  const SimResult result =
      RunInvariantsSim(InvariantsConfig(SchemeSpec::Ssp(1), false));
  ExpectGated(result);
  EXPECT_EQ(TraceDigest(result.trace), kSsp1Digest);
}

TEST(StaticSchemeGoldenTest, Ssp5WithStallsTraceDigestIsPinned) {
  const SimResult result =
      RunInvariantsSim(InvariantsConfig(SchemeSpec::Ssp(5), true));
  // A bound of 5 never binds in this run, so the pin holds every admission
  // decision to "admit": a spurious block would change the trace.
  EXPECT_GT(result.total_pushes, 100u);
  EXPECT_EQ(result.consistency.blocks, 0u);
  EXPECT_EQ(TraceDigest(result.trace), kSsp5StallsDigest);
}

TEST(StaticSchemeGoldenTest, BspWithDropsAndDuplicatesTraceDigestIsPinned) {
  ClusterSimConfig config = InvariantsConfig(SchemeSpec::Bsp(), false);
  config.faults.data.drop_probability = 0.05;
  config.faults.data.duplicate_probability = 0.05;
  config.faults.control.drop_probability = 0.1;
  config.faults.control.duplicate_probability = 0.1;
  config.faults.seed = 7;
  const SimResult result = RunInvariantsSim(config);
  ExpectGated(result);
  EXPECT_GT(result.fault_stats.drops, 0u);
  EXPECT_GT(result.fault_stats.duplicates, 0u);
  EXPECT_EQ(TraceDigest(result.trace), kBspLossyDigest);
}

// The conservation law behind DESIGN.md Sec. 6: under ASP with full duty
// cycle and no delivery batching, mean version lag sits near m-1.
TEST(StalenessConservationTest, AspMeanLagNearMMinus1) {
  ClusterSimConfig config;
  config.num_workers = 8;
  config.num_servers = 2;
  config.batch_size = 8;
  config.eval_interval = Duration::Seconds(50.0);
  config.eval_subsample = 50;
  config.max_time = SimTime::FromSeconds(400.0);
  config.seed = 13;
  ClusterSim sim(SmallModel(), std::make_shared<ConstantSchedule>(0.05),
                 SpeedModel::Homogeneous(Duration::Seconds(1.0),
                                         config.num_workers, 0.1),
                 config);
  const SimResult result = sim.Run();
  double total = 0.0;
  for (const PushEvent& push : result.trace.pushes()) {
    total += static_cast<double>(push.missed_updates);
  }
  const double mean = total / static_cast<double>(result.total_pushes);
  // Network time creates a little idle per iteration, so slightly below 7.
  EXPECT_GT(mean, 5.5);
  EXPECT_LT(mean, 7.5);
}

}  // namespace
}  // namespace specsync
