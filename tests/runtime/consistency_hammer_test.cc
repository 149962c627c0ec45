// Threaded hammer for the worker protocol's consistency gate and the
// per-shard/dynamic SSP controllers behind it. The property harness
// (tests/ps) proves the gating math single-threaded and decision-exact; this
// file proves the same objects are safe and live under real contention —
// many worker threads pounding Admit/AwaitAdmission/Commit while crash churn
// (Crash/Rejoin) races them. It is part of the TSan/ASan suite list in
// scripts/sanitize.sh: the assertions here are deliberately coarse (quotas
// complete, counters reconcile), because the sanitizers are the real oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "fault/fault_plan.h"
#include "models/softmax_regression.h"
#include "obs/obs.h"
#include "protocol/worker_protocol.h"
#include "runtime/runtime_cluster.h"
#include "runtime/wall_clock.h"

namespace specsync {
namespace {

using SteadyClock = std::chrono::steady_clock;

std::shared_ptr<const Model> TinyModel(std::uint64_t seed) {
  Rng rng(seed);
  ClassificationSpec spec;
  spec.num_examples = 300;
  spec.feature_dim = 8;
  spec.num_classes = 3;
  auto data = std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
  return std::make_shared<SoftmaxRegressionModel>(std::move(data),
                                                  SoftmaxRegressionConfig{});
}

// A protocol whose gate alone is exercised: nothing touches its store.
class GateOnly {
 public:
  GateOnly(std::size_t num_workers, std::size_t num_shards, SchemeSpec scheme,
           obs::ObsContext* obs = nullptr)
      : faults_(FaultPlanConfig{}),
        protocol_(TinyModel(1), std::make_shared<ConstantSchedule>(0.1),
                  Config(num_workers, num_shards, std::move(scheme), obs),
                  faults_, Rng(1)) {}

  WorkerProtocol* operator->() { return &protocol_; }
  const FaultPlan& faults() const { return faults_; }

  // Enters worker w's next iteration the way a runtime worker thread does.
  // The deadline is the watchdog: false if the gate stayed shut through
  // the test's whole budget, which fails the test loudly instead of
  // hanging ctest.
  bool Enter(WorkerId w, const WallClock& clock) {
    while (!protocol_.Admit(w, clock.Now())) {
      if (!protocol_.AwaitAdmission(w, deadline_)) return false;
    }
    return true;
  }

 private:
  static WorkerProtocolConfig Config(std::size_t num_workers,
                                     std::size_t num_shards,
                                     SchemeSpec scheme, obs::ObsContext* obs) {
    WorkerProtocolConfig config;
    config.num_workers = num_workers;
    config.num_servers = num_shards;
    config.scheme = std::move(scheme);
    config.obs = obs;
    config.metric_prefix = "hammer";
    return config;
  }

  FaultPlan faults_;
  WorkerProtocol protocol_;
  SteadyClock::time_point deadline_ = SteadyClock::now() + std::chrono::seconds(60);
};

TEST(ConsistencyHammerTest, ManyThreadsCompleteUnderTightBound) {
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kQuota = 200;
  // SSP freezes every write set to all shards, so the bound binds from
  // iteration 0: a learned (lazy) write set would leave not-yet-spawned
  // workers invisible and let the first thread blast through its quota
  // uncontested.
  GateOnly gate(kWorkers, kShards, SchemeSpec::Ssp(1));
  WallClock clock;
  std::atomic<std::uint64_t> total_pushes{0};
  std::atomic<bool> wedged{false};
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (std::uint64_t t = 0; t < kQuota; ++t) {
          if (!gate.Enter(w, clock)) {
            wedged.store(true);
            return;
          }
          // Touch a worker-dependent pair of shards so the pushes differ.
          const std::size_t touched[] = {w % kShards, (w + 1) % kShards};
          gate->Commit(w, clock.Now(), touched, /*landed=*/true);
          total_pushes.fetch_add(1);
        }
      });
    }
  }
  EXPECT_FALSE(wedged.load());
  EXPECT_EQ(total_pushes.load(), kWorkers * kQuota);
  // With s=1 and eight free-running threads the gate must have actually
  // blocked somebody along the way, and every interval closed.
  const ConsistencyStats stats = gate->Finish(clock.Now());
  EXPECT_GT(stats.blocks, 0u);
  EXPECT_GT(stats.blocked_seconds, 0.0);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(gate->completed(w), kQuota) << "worker " << w;
    EXPECT_EQ(gate->controller()->completed(w), kQuota) << "worker " << w;
  }
}

TEST(ConsistencyHammerTest, CrashChurnNeverWedgesTheGate) {
  // Workers repeatedly crash, sleep out the outage, and rejoin mid-run —
  // the runtime's crash path, concentrated. Peers must keep progressing
  // while a worker is down, and the rejoined worker must be admitted again
  // at its old clocks.
  constexpr std::size_t kWorkers = 6;
  constexpr std::size_t kShards = 3;
  constexpr std::uint64_t kQuota = 150;
  GateOnly gate(kWorkers, kShards, SchemeSpec::PerShardSsp(2));
  WallClock clock;
  std::atomic<bool> wedged{false};
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (std::uint64_t t = 0; t < kQuota; ++t) {
          // Every worker takes up to three outages at worker-dependent
          // points.
          if (t % 50 == (w * 7) % 50 && t > 0) {
            gate->Crash(w, clock.Now());
            std::this_thread::sleep_for(std::chrono::microseconds(300));
            gate->Rejoin(w);
          }
          if (!gate.Enter(w, clock)) {
            wedged.store(true);
            return;
          }
          const std::size_t touched[] = {w % kShards};
          gate->Commit(w, clock.Now(), touched, /*landed=*/true);
        }
      });
    }
  }
  EXPECT_FALSE(wedged.load());
  EXPECT_GT(gate.faults().stats().crashes, 0u);
  EXPECT_EQ(gate.faults().stats().rejoins, gate.faults().stats().crashes);
  const PerShardSspController& pssp = *gate->controller();
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(pssp.completed(w), kQuota) << "worker " << w;
    EXPECT_TRUE(pssp.live(w)) << "worker " << w;
    EXPECT_TRUE(gate->live(w)) << "worker " << w;
  }
}

TEST(ConsistencyHammerTest, DynamicControllerRetunesUnderConcurrentAudit) {
  // DSSP's retune path runs on whichever worker thread happens to close an
  // epoch, appending to the (mutex-guarded) audit log while other threads
  // push — exactly the concurrency the runtime produces. One thread is
  // artificially slow so retunes actually fire.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kShards = 2;
  constexpr std::uint64_t kQuota = 120;
  DynamicSspConfig config;
  // Floor start: under BSP lockstep the measured ratio is ~1 plus scheduling
  // noise, and any ratio above 1 already moves the bound off 0 — after which
  // the fast workers run free and the real 10x ratio expresses itself.
  config.initial_staleness = 0;
  config.max_staleness = 8;
  obs::ObsContext ctx;
  GateOnly gate(kWorkers, kShards, SchemeSpec::DynamicSsp(config), &ctx);
  WallClock clock;
  std::atomic<bool> wedged{false};
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (std::uint64_t t = 0; t < kQuota; ++t) {
          if (!gate.Enter(w, clock)) {
            wedged.store(true);
            return;
          }
          // Worker 0 is the straggler: ~10x the others' inter-push gap.
          std::this_thread::sleep_for(
              std::chrono::microseconds(w == 0 ? 500 : 50));
          const std::size_t touched[] = {w % kShards, (w + 1) % kShards};
          gate->Commit(w, clock.Now(), touched, /*landed=*/true);
        }
      });
    }
  }
  EXPECT_FALSE(wedged.load());
  const ConsistencyStats stats = gate->Finish(clock.Now());
  EXPECT_GT(stats.retunes, 0u);
  // Concurrent appends reconcile: one staleness record per retune, none lost.
  std::size_t staleness_records = 0;
  for (const obs::RetuneRecord& record : ctx.audit.retunes()) {
    if (record.kind == obs::RetuneKind::kStaleness) ++staleness_records;
  }
  EXPECT_EQ(staleness_records, stats.retunes);
  EXPECT_GE(stats.final_staleness, config.min_staleness);
  EXPECT_LE(stats.final_staleness, config.max_staleness);
}

TEST(ConsistencyHammerTest, DeadlineReleasesBlockedWaiter) {
  // Worker 1 stops pushing, so worker 0 wedges at the bound. A deadline (the
  // runtime's crash falling due) must wake it with a false return and leave
  // its blocked interval open for the crash to close; a peer's push must
  // wake a waiter with no deadline.
  GateOnly gate(2, 1, SchemeSpec::PerShardSsp(0));
  WallClock clock;
  // Learn both write sets so the bound binds; worker 0 runs one ahead.
  const std::size_t shard0[] = {0};
  gate->Commit(0, clock.Now(), shard0, /*landed=*/true);
  gate->Commit(1, clock.Now(), shard0, /*landed=*/true);
  gate->Commit(0, clock.Now(), shard0, /*landed=*/true);
  ASSERT_FALSE(gate->Admit(0, clock.Now()));  // iteration 2 needs worker 1
  const auto begin = SteadyClock::now();
  EXPECT_FALSE(gate->AwaitAdmission(
      0, begin + std::chrono::milliseconds(20)));
  EXPECT_GE(SteadyClock::now() - begin, std::chrono::milliseconds(20));
  EXPECT_TRUE(gate->blocked(0));
  const SimTime crash_at = clock.Now();
  gate->Crash(0, crash_at);
  EXPECT_FALSE(gate->blocked(0));
  const ConsistencyStats crashed = gate->Finish(crash_at);
  EXPECT_EQ(crashed.blocks, 1u);
  EXPECT_GE(crashed.blocked_seconds, 0.02);

  // Rejoined, worker 0 waits again; worker 1's push releases it.
  gate->Rejoin(0);
  ASSERT_FALSE(gate->Admit(0, clock.Now()));
  std::atomic<int> verdict{-1};
  std::jthread waiter([&] {
    verdict.store(
        gate->AwaitAdmission(0, SteadyClock::time_point::max()) ? 1 : 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(verdict.load(), -1);  // genuinely blocked
  gate->Commit(1, clock.Now(), shard0, /*landed=*/true);
  waiter.join();
  EXPECT_EQ(verdict.load(), 1);
  EXPECT_TRUE(gate->Admit(0, clock.Now()));
}

// --- full runtime under gating + fault injection ---------------------------

TEST(ConsistencyHammerTest, RuntimeSspWithCrashRejoinCompletesQuota) {
  // End to end: gated runtime threads + FaultMailbox-driven crash/rejoin.
  // The crashed worker must be excused (peers keep training through the
  // outage instead of wedging at the bound) and re-admitted on rejoin.
  RuntimeConfig config;
  config.num_workers = 4;
  config.iterations_per_worker = 25;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(200);
  config.consistency.scheme = RuntimeConsistency::kSsp;
  config.consistency.staleness = 1;
  config.faults.crashes.push_back(CrashEvent{
      2, SimTime::FromSeconds(0.005), SimTime::FromSeconds(0.030)});
  RuntimeCluster cluster(TinyModel(11), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, 100u);
  EXPECT_EQ(result.workers_killed, 0u);
  EXPECT_EQ(result.fault_stats.crashes, 1u);
  EXPECT_EQ(result.fault_stats.rejoins, 1u);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

TEST(ConsistencyHammerTest, RuntimeDsspSurvivesLossyControlPlaneAndDeath) {
  // Hardest combination: dynamic bound, lossy control links, and a permanent
  // worker death. The gate must excuse the corpse (no deadlock at the bound),
  // DSSP keeps retuning its epoch statistics over the survivors, and the
  // audit trail stays complete.
  RuntimeConfig config;
  config.num_workers = 4;
  config.iterations_per_worker = 30;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(300);
  config.consistency.scheme = RuntimeConsistency::kDssp;
  config.consistency.dssp.initial_staleness = 1;
  config.faults.control.drop_probability = 0.10;
  config.faults.control.delay_probability = 0.2;
  config.faults.control.delay_mean = Duration::Milliseconds(1.0);
  config.faults.crashes.push_back(
      CrashEvent{3, SimTime::FromSeconds(0.02), std::nullopt});
  // Slow worker 0 so the straggler ratio is real.
  config.faults.slowdowns.push_back(SlowdownWindow{
      0, SimTime::Zero(), SimTime::FromSeconds(3600.0), 6.0});
  obs::ObsContext ctx;
  config.obs = &ctx;
  RuntimeCluster cluster(TinyModel(12), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.workers_killed, 1u);
  EXPECT_GE(result.total_pushes, 90u);   // survivors finish their quotas
  EXPECT_LT(result.total_pushes, 120u);  // the corpse's quota stays unmet
  EXPECT_TRUE(AllFinite(result.final_weights));
  std::size_t staleness_records = 0;
  for (const obs::RetuneRecord& record : ctx.audit.retunes()) {
    if (record.kind == obs::RetuneKind::kStaleness) ++staleness_records;
  }
  EXPECT_EQ(staleness_records, result.consistency_retunes);
}

}  // namespace
}  // namespace specsync
