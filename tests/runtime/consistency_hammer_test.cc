// Threaded hammer for the consistency gate and the per-shard/dynamic SSP
// controllers. The property harness (tests/ps) proves the gating math
// single-threaded and decision-exact; this file proves the same objects are
// safe and live under real contention — many worker threads pounding
// WaitToStart/OnPush while churn (down/up) and shutdown race them. It is part
// of the TSan/ASan suite list in scripts/sanitize.sh: the assertions here are
// deliberately coarse (quotas complete, counters reconcile), because the
// sanitizers are the real oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "models/softmax_regression.h"
#include "obs/obs.h"
#include "ps/consistency.h"
#include "ps/consistency_gate.h"
#include "runtime/runtime_cluster.h"
#include "runtime/wall_clock.h"

namespace specsync {
namespace {

// Watchdog: fails the test loudly instead of hanging ctest if the gate ever
// wedges. Shutdown() releases every waiter with a false return, which the
// worker loops treat as abort.
class GateWatchdog {
 public:
  GateWatchdog(ConsistencyGate& gate, std::chrono::seconds budget)
      : thread_([&gate, budget, this] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, budget, [this] { return done_; })) {
            fired_.store(true);
            gate.Shutdown();
          }
        }) {}
  ~GateWatchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  bool fired() const { return fired_.load(); }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::atomic<bool> fired_{false};
  std::jthread thread_;
};

TEST(ConsistencyHammerTest, ManyThreadsCompleteUnderTightBound) {
  constexpr std::size_t kWorkers = 8;
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kQuota = 200;
  // Declare the write sets up front so the bound binds from iteration 0: a
  // learned (lazy) write set would leave not-yet-spawned workers invisible
  // and let the first thread blast through its quota uncontested.
  auto controller = std::make_unique<PerShardSspController>(
      kWorkers, kShards, /*staleness=*/1);
  for (std::size_t w = 0; w < kWorkers; ++w) {
    controller->SetWriteSet(w, {w % kShards, (w + 1) % kShards});
  }
  ConsistencyGate gate(std::move(controller));
  GateWatchdog watchdog(gate, std::chrono::seconds(60));
  WallClock clock;
  std::atomic<std::uint64_t> total_pushes{0};
  std::atomic<bool> aborted{false};
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (std::uint64_t t = 0; t < kQuota; ++t) {
          if (!gate.WaitToStart(w, t)) {
            aborted.store(true);
            return;
          }
          // Touch a worker-dependent pair of shards so write sets overlap
          // without being identical.
          const std::size_t touched[] = {w % kShards, (w + 1) % kShards};
          gate.OnPush(w, t, clock.Now(), touched);
          total_pushes.fetch_add(1);
        }
      });
    }
  }
  EXPECT_FALSE(watchdog.fired());
  EXPECT_FALSE(aborted.load());
  EXPECT_EQ(total_pushes.load(), kWorkers * kQuota);
  // With s=1 and eight free-running threads the gate must have actually
  // blocked somebody along the way.
  EXPECT_GT(gate.blocks(), 0u);
  const auto& pssp =
      static_cast<const PerShardSspController&>(gate.controller());
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(pssp.completed(w), kQuota) << "worker " << w;
  }
}

TEST(ConsistencyHammerTest, CrashChurnNeverWedgesTheGate) {
  // Workers repeatedly "crash" (OnWorkerDown), sleep out the outage, and
  // rejoin (OnWorkerUp) mid-run — the runtime's crash path, concentrated.
  // Peers must keep progressing while a worker is down, and the rejoined
  // worker must be admitted again at its old clocks.
  constexpr std::size_t kWorkers = 6;
  constexpr std::size_t kShards = 3;
  constexpr std::uint64_t kQuota = 150;
  ConsistencyGate gate(std::make_unique<PerShardSspController>(
      kWorkers, kShards, /*staleness=*/2));
  GateWatchdog watchdog(gate, std::chrono::seconds(60));
  WallClock clock;
  std::atomic<bool> aborted{false};
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (std::uint64_t t = 0; t < kQuota; ++t) {
          // Every worker takes three outages at worker-dependent points.
          if (t % 50 == (w * 7) % 50 && t > 0) {
            gate.OnWorkerDown(w);
            std::this_thread::sleep_for(std::chrono::microseconds(300));
            gate.OnWorkerUp(w);
          }
          if (!gate.WaitToStart(w, t)) {
            aborted.store(true);
            return;
          }
          const std::size_t touched[] = {w % kShards};
          gate.OnPush(w, t, clock.Now(), touched);
        }
      });
    }
  }
  EXPECT_FALSE(watchdog.fired());
  EXPECT_FALSE(aborted.load());
  const auto& pssp =
      static_cast<const PerShardSspController&>(gate.controller());
  for (std::size_t w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(pssp.completed(w), kQuota) << "worker " << w;
    EXPECT_TRUE(pssp.live(w)) << "worker " << w;
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
  auto controller =
      std::make_unique<DynamicSspController>(kWorkers, kShards, config);
  auto* dssp = controller.get();
  obs::DecisionAuditLog audit;
  dssp->AttachAudit(&audit);
  ConsistencyGate gate(std::move(controller));
  GateWatchdog watchdog(gate, std::chrono::seconds(60));
  WallClock clock;
  std::atomic<bool> aborted{false};
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        for (std::uint64_t t = 0; t < kQuota; ++t) {
          if (!gate.WaitToStart(w, t)) {
            aborted.store(true);
            return;
          }
          // Worker 0 is the straggler: ~10x the others' inter-push gap.
          std::this_thread::sleep_for(
              std::chrono::microseconds(w == 0 ? 500 : 50));
          const std::size_t touched[] = {w % kShards, (w + 1) % kShards};
          gate.OnPush(w, t, clock.Now(), touched);
        }
      });
    }
  }
  EXPECT_FALSE(watchdog.fired());
  EXPECT_FALSE(aborted.load());
  EXPECT_GT(dssp->retunes(), 0u);
  // Concurrent appends reconcile: one staleness record per retune, none lost.
  std::size_t staleness_records = 0;
  for (const obs::RetuneRecord& record : audit.retunes()) {
    if (record.kind == obs::RetuneKind::kStaleness) ++staleness_records;
  }
  EXPECT_EQ(staleness_records, dssp->retunes());
  EXPECT_GE(dssp->staleness(), config.min_staleness);
  EXPECT_LE(dssp->staleness(), config.max_staleness);
}

TEST(ConsistencyHammerTest, ShutdownReleasesBlockedWaiters) {
  // Worker 1 never pushes, so worker 0 wedges at the bound; Shutdown must
  // wake it with a false return (the runtime's teardown path).
  ConsistencyGate gate(
      std::make_unique<PerShardSspController>(2, 1, /*staleness=*/0));
  WallClock clock;
  // Learn both write sets so the bound binds.
  const std::size_t shard0[] = {0};
  gate.OnPush(0, 0, clock.Now(), shard0);
  gate.OnPush(1, 0, clock.Now(), shard0);
  std::atomic<int> verdict{-1};
  std::jthread blocked([&] {
    // Iteration 2 needs min completed >= 2; worker 1 stays at 1 forever.
    verdict.store(gate.WaitToStart(0, 2) ? 1 : 0);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(verdict.load(), -1);  // genuinely blocked
  gate.Shutdown();
  blocked.join();
  EXPECT_EQ(verdict.load(), 0);
  EXPECT_FALSE(gate.WaitToStart(1, 1));  // post-shutdown calls refuse too
}

// --- full runtime under gating + fault injection ---------------------------

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
