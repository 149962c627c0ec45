// Fault injection through the full cluster simulation: zero-fault runs stay
// bit-identical, faulty runs stay deterministic, and crashes/slowdowns/losses
// produce the expected protocol-level behavior.
#include <gtest/gtest.h>

#include <algorithm>

#include "data/synthetic.h"
#include "models/softmax_regression.h"
#include "sim/cluster.h"

namespace specsync {
namespace {

SimTime T(double s) { return SimTime::FromSeconds(s); }
Duration D(double s) { return Duration::Seconds(s); }

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
  // Speculation on, so the scheduler's fault handling is exercised too.
  SpeculationParams params;
  params.abort_time = D(0.5);
  params.abort_rate = 0.5;
  config.scheme = SchemeSpec::Cherrypick(params);
  return config;
}

SpeedModel Speed(const ClusterSimConfig& config) {
  return SpeedModel::Homogeneous(Duration::Seconds(1.0), config.num_workers,
                                 0.1);
}

SimResult RunOnce(const ClusterSimConfig& config) {
  ClusterSim sim(TinyModel(1), std::make_shared<ConstantSchedule>(0.2),
                 Speed(config), config);
  return sim.Run();
}

void ExpectIdenticalRuns(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.total_pushes, b.total_pushes);
  EXPECT_EQ(a.total_aborts, b.total_aborts);
  EXPECT_DOUBLE_EQ(a.final_loss, b.final_loss);
  EXPECT_EQ(a.final_weights, b.final_weights);
  ASSERT_EQ(a.trace.pushes().size(), b.trace.pushes().size());
  for (std::size_t i = 0; i < a.trace.pushes().size(); ++i) {
    EXPECT_EQ(a.trace.pushes()[i].time, b.trace.pushes()[i].time);
    EXPECT_EQ(a.trace.pushes()[i].worker, b.trace.pushes()[i].worker);
    EXPECT_EQ(a.trace.pushes()[i].iteration, b.trace.pushes()[i].iteration);
  }
}

// --- acceptance: all-zero fault config changes nothing -------------------------

TEST(FaultSimTest, ZeroProbabilityFaultsAreBitIdentical) {
  const SimResult baseline = RunOnce(BaseConfig());

  ClusterSimConfig with_faults = BaseConfig();
  // Explicitly-present but all-zero fault config: every probability zero, no
  // scheduled events — must not consume RNG or perturb a single event.
  with_faults.faults.data.drop_probability = 0.0;
  with_faults.faults.data.duplicate_probability = 0.0;
  with_faults.faults.control.drop_probability = 0.0;
  with_faults.faults.control.delay_probability = 0.0;
  with_faults.faults.seed = 0xDEADBEEF;  // unused when inert
  const SimResult zero = RunOnce(with_faults);

  ExpectIdenticalRuns(baseline, zero);
  EXPECT_EQ(zero.fault_stats.messages_seen, 0u);
  EXPECT_EQ(zero.fault_stats.drops, 0u);
  EXPECT_EQ(zero.scheduler_stats.duplicate_notifies, 0u);
  EXPECT_EQ(zero.scheduler_stats.late_checks, 0u);
  EXPECT_EQ(zero.scheduler_stats.worker_departures, 0u);
}

TEST(FaultSimTest, FaultyRunsAreDeterministic) {
  ClusterSimConfig config = BaseConfig();
  config.faults.data.drop_probability = 0.05;
  config.faults.data.duplicate_probability = 0.05;
  config.faults.control.drop_probability = 0.1;
  config.faults.control.duplicate_probability = 0.1;
  config.faults.control.delay_probability = 0.2;
  config.faults.control.delay_mean = Duration::Milliseconds(20.0);
  config.faults.crashes.push_back(CrashEvent{1, T(40.0), T(70.0)});
  config.faults.slowdowns.push_back(SlowdownWindow{2, T(10.0), T(30.0), 2.0});
  const SimResult a = RunOnce(config);
  const SimResult b = RunOnce(config);
  ExpectIdenticalRuns(a, b);
  EXPECT_EQ(a.fault_stats.drops, b.fault_stats.drops);
  EXPECT_EQ(a.fault_stats.duplicates, b.fault_stats.duplicates);
  EXPECT_EQ(a.scheduler_stats.duplicate_notifies,
            b.scheduler_stats.duplicate_notifies);
}

// --- pinned fault paths --------------------------------------------------------
//
// Crash, rejoin and a lossy control plane under speculation, pinned to exact
// values: the trace digest, every ConsistencyStats field and every
// SchedulerStats field. Any change to the order of the worker protocol's
// steps under faults (gate, pull, commit, abort, crash, rejoin) moves one of
// them. Re-capture a pin only for a deliberate behaviour change, by printing
// the fields of the run below.

struct FaultPin {
  std::uint64_t digest;
  ConsistencyStats consistency;
  SchedulerStats scheduler;
};

void ExpectPinned(const SimResult& result, const FaultPin& pin) {
  EXPECT_EQ(TraceDigest(result.trace), pin.digest);
  EXPECT_EQ(result.consistency.blocks, pin.consistency.blocks);
  EXPECT_EQ(result.consistency.blocked_seconds,
            pin.consistency.blocked_seconds);
  EXPECT_EQ(result.consistency.retunes, pin.consistency.retunes);
  EXPECT_EQ(result.consistency.final_staleness,
            pin.consistency.final_staleness);
  const SchedulerStats& s = result.scheduler_stats;
  EXPECT_EQ(s.notifies_received, pin.scheduler.notifies_received);
  EXPECT_EQ(s.checks_performed, pin.scheduler.checks_performed);
  EXPECT_EQ(s.resyncs_issued, pin.scheduler.resyncs_issued);
  EXPECT_EQ(s.stale_checks_skipped, pin.scheduler.stale_checks_skipped);
  EXPECT_EQ(s.retunes, pin.scheduler.retunes);
  EXPECT_EQ(s.duplicate_notifies, pin.scheduler.duplicate_notifies);
  EXPECT_EQ(s.late_checks, pin.scheduler.late_checks);
  EXPECT_EQ(s.lost_worker_epochs_unblocked,
            pin.scheduler.lost_worker_epochs_unblocked);
  EXPECT_EQ(s.worker_departures, pin.scheduler.worker_departures);
  EXPECT_EQ(s.worker_rejoins, pin.scheduler.worker_rejoins);
}

// FaultyRunsAreDeterministic's config: Cherrypick speculation; data and
// control drops, duplicates and delays; a crash with rejoin; a slowdown.
TEST(FaultSimTest, LossyCherrypickWithCrashRejoinIsPinned) {
  ClusterSimConfig config = BaseConfig();
  config.faults.data.drop_probability = 0.05;
  config.faults.data.duplicate_probability = 0.05;
  config.faults.control.drop_probability = 0.1;
  config.faults.control.duplicate_probability = 0.1;
  config.faults.control.delay_probability = 0.2;
  config.faults.control.delay_mean = Duration::Milliseconds(20.0);
  config.faults.crashes.push_back(CrashEvent{1, T(40.0), T(70.0)});
  config.faults.slowdowns.push_back(SlowdownWindow{2, T(10.0), T(30.0), 2.0});
  const FaultPin pin{
      .digest = 2776781777255346775ULL,
      .consistency = {},  // ASP: nothing is gated
      .scheduler = {.notifies_received = 389,
                    .checks_performed = 345,
                    .resyncs_issued = 114,
                    .stale_checks_skipped = 0,
                    .retunes = 73,
                    .duplicate_notifies = 42,
                    .late_checks = 0,
                    .lost_worker_epochs_unblocked = 21,
                    .worker_departures = 1,
                    .worker_rejoins = 1}};
  ExpectPinned(RunOnce(config), pin);
}

// SpecSync-Adaptive over per-shard SSP(2): one permanent crash and one crash
// with rejoin, so the gate excuses a corpse and re-admits a rejoiner.
TEST(FaultSimTest, AdaptivePerShardSspWithCrashesIsPinned) {
  ClusterSimConfig config = BaseConfig();
  config.scheme = SchemeSpec::PerShardSsp(2);
  config.scheme.speculation = SpeculationMode::kAdaptive;
  config.faults.crashes.push_back(CrashEvent{3, T(30.0), std::nullopt});
  config.faults.crashes.push_back(CrashEvent{1, T(45.0), T(75.0)});
  const FaultPin pin{
      .digest = 17070891511131055324ULL,
      .consistency = {.blocks = 9,
                      .blocked_seconds = 0x1.e102b5f3aff3p+5,  // ~60.13 s
                      .retunes = 0,
                      .final_staleness = 2},
      .scheduler = {.notifies_received = 283,
                    .checks_performed = 134,
                    .resyncs_issued = 60,
                    .stale_checks_skipped = 0,
                    .retunes = 84,
                    .duplicate_notifies = 0,
                    .late_checks = 0,
                    .lost_worker_epochs_unblocked = 58,
                    .worker_departures = 2,
                    .worker_rejoins = 1}};
  ExpectPinned(RunOnce(config), pin);
}

// --- message faults ------------------------------------------------------------

TEST(FaultSimTest, NotifyDropsDoNotStallTraining) {
  ClusterSimConfig config = BaseConfig();
  config.faults.control.drop_probability = 0.3;
  const SimResult result = RunOnce(config);
  EXPECT_GT(result.total_pushes, 100u);
  EXPECT_GT(result.fault_stats.drops, 0u);
  // Lost notifies: the scheduler hears about fewer pushes than happened.
  EXPECT_LT(result.scheduler_stats.notifies_received, result.total_pushes);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

TEST(FaultSimTest, DuplicateNotifiesAreDetected) {
  ClusterSimConfig config = BaseConfig();
  config.faults.control.duplicate_probability = 0.5;
  const SimResult result = RunOnce(config);
  EXPECT_GT(result.fault_stats.duplicates, 0u);
  EXPECT_GT(result.scheduler_stats.duplicate_notifies, 0u);
  // Dedup means the ledger still matches reality: accepted notifies can
  // never exceed actual pushes (lost pushes also notify, so >= is wrong;
  // with only duplication enabled the two are equal).
  EXPECT_EQ(result.scheduler_stats.notifies_received -
                result.scheduler_stats.duplicate_notifies,
            result.total_pushes);
}

TEST(FaultSimTest, GradientDropsLoseUpdatesButNotWorkers) {
  ClusterSimConfig config = BaseConfig();
  config.faults.data.drop_probability = 0.2;
  const SimResult result = RunOnce(config);
  EXPECT_GT(result.fault_stats.drops, 0u);
  // Workers keep iterating (pushes keep landing) despite lost gradients.
  EXPECT_GT(result.total_pushes, 50u);
  EXPECT_TRUE(AllFinite(result.final_weights));
  // Lost pushes still notify: the scheduler sees more pushes than the
  // servers applied.
  EXPECT_GT(result.scheduler_stats.notifies_received -
                result.scheduler_stats.duplicate_notifies,
            result.total_pushes);
}

// --- crash / rejoin ------------------------------------------------------------

TEST(FaultSimTest, PermanentCrashDoesNotDeadlockEpochs) {
  ClusterSimConfig config = BaseConfig();
  config.faults.crashes.push_back(CrashEvent{2, T(30.0), std::nullopt});
  const SimResult result = RunOnce(config);
  EXPECT_EQ(result.fault_stats.crashes, 1u);
  EXPECT_EQ(result.fault_stats.rejoins, 0u);
  EXPECT_EQ(result.scheduler_stats.worker_departures, 1u);
  // Epochs kept finishing after the crash — the dead worker was excused.
  EXPECT_GT(result.scheduler_stats.lost_worker_epochs_unblocked, 0u);
  // No pushes from the dead worker except messages already in flight.
  for (const PushEvent& push : result.trace.pushes()) {
    if (push.worker == 2) {
      EXPECT_LT(push.time, T(31.0));
    }
  }
  // The survivors kept training.
  std::uint64_t survivor_pushes_late = 0;
  for (const PushEvent& push : result.trace.pushes()) {
    if (push.worker != 2 && push.time > T(60.0)) ++survivor_pushes_late;
  }
  EXPECT_GT(survivor_pushes_late, 10u);
}

TEST(FaultSimTest, CrashWithRejoinResumesPushing) {
  ClusterSimConfig config = BaseConfig();
  config.faults.crashes.push_back(CrashEvent{0, T(20.0), T(50.0)});
  const SimResult result = RunOnce(config);
  EXPECT_EQ(result.fault_stats.crashes, 1u);
  EXPECT_EQ(result.fault_stats.rejoins, 1u);
  EXPECT_EQ(result.scheduler_stats.worker_rejoins, 1u);
  std::uint64_t pushes_while_down = 0;
  std::uint64_t pushes_after_rejoin = 0;
  for (const PushEvent& push : result.trace.pushes()) {
    if (push.worker != 0) continue;
    if (push.time > T(21.0) && push.time < T(50.0)) ++pushes_while_down;
    if (push.time > T(50.0)) ++pushes_after_rejoin;
  }
  EXPECT_EQ(pushes_while_down, 0u);
  EXPECT_GT(pushes_after_rejoin, 10u);
}

// --- slowdown windows ----------------------------------------------------------

TEST(FaultSimTest, SlowdownWindowSparsifiesPushes) {
  auto count_in = [](const SimResult& result, WorkerId worker, SimTime begin,
                     SimTime end) {
    std::uint64_t count = 0;
    for (const PushEvent& push : result.trace.pushes()) {
      if (push.worker == worker && push.time >= begin && push.time < end) {
        ++count;
      }
    }
    return count;
  };
  const SimResult healthy = RunOnce(BaseConfig());
  ClusterSimConfig config = BaseConfig();
  config.faults.slowdowns.push_back(SlowdownWindow{0, T(10.0), T(60.0), 4.0});
  const SimResult slowed = RunOnce(config);
  const std::uint64_t healthy_pushes = count_in(healthy, 0, T(10.0), T(60.0));
  const std::uint64_t slowed_pushes = count_in(slowed, 0, T(10.0), T(60.0));
  EXPECT_LT(slowed_pushes, healthy_pushes / 2);
  EXPECT_GT(slowed_pushes, 0u);
}

// --- NetworkModel::PlanTransfer hook -------------------------------------------

TEST(FaultSimTest, PlanTransferMatchesTransferTimeWithoutFaults) {
  NetworkModel network(NetworkConfig{});
  Rng a(11);
  Rng b(11);
  FaultPlan inert((FaultPlanConfig()));
  for (int i = 0; i < 100; ++i) {
    const Duration plain = network.TransferTime(1 << 16, a);
    const NetworkModel::TransferPlan plan =
        network.PlanTransfer(1 << 16, LinkClass::kData, b, &inert);
    EXPECT_EQ(plan.delay, plain);
    EXPECT_FALSE(plan.drop);
    EXPECT_FALSE(plan.duplicate);
  }
  // Null plan behaves the same.
  Rng c(11);
  const NetworkModel::TransferPlan plan =
      network.PlanTransfer(1 << 16, LinkClass::kData, c, nullptr);
  EXPECT_FALSE(plan.drop);
}

TEST(FaultSimTest, PlanTransferAppliesFaultDecision) {
  NetworkModel network(NetworkConfig{});
  FaultPlanConfig config;
  config.data.drop_probability = 0.5;
  config.data.delay_probability = 0.5;
  FaultPlan plan(config);
  Rng rng(12);
  int drops = 0;
  int delayed = 0;
  for (int i = 0; i < 2000; ++i) {
    const NetworkModel::TransferPlan t =
        network.PlanTransfer(1024, LinkClass::kData, rng, &plan);
    if (t.drop) ++drops;
    // Fault-injected extra delay is added on top of the nominal transfer
    // time; the nominal time for 1 KiB is well under a millisecond.
    if (t.delay > Duration::Milliseconds(2.0)) ++delayed;
  }
  EXPECT_NEAR(drops / 2000.0, 0.5, 0.05);
  EXPECT_GT(delayed, 100);
}

}  // namespace
}  // namespace specsync
