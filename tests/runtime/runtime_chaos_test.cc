// Chaos tests for the threaded runtime: the fault-injecting mailbox contract,
// and full training runs under message loss, duplication, delay, slowdown, and
// worker crashes. These are the primary TSan/ASan targets — they exercise the
// scheduler thread, worker threads, and the fault plan concurrently.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "data/synthetic.h"
#include "models/softmax_regression.h"
#include "obs/obs.h"
#include "runtime/fault_mailbox.h"
#include "runtime/runtime_cluster.h"
#include "tensor/vector.h"

namespace specsync {
namespace {

// --- FaultMailbox --------------------------------------------------------------

// A non-blocking receive: the next ready message, or nullopt at once.
std::optional<int> ReceiveNow(FaultMailbox<int>& box) {
  return box.ReceiveUntil(std::chrono::steady_clock::now());
}

TEST(FaultMailboxTest, NullPlanIsPlainFifo) {
  FaultMailbox<int> box;
  EXPECT_TRUE(box.Send(1));
  EXPECT_TRUE(box.Send(2));
  EXPECT_TRUE(box.Send(3));
  EXPECT_EQ(box.Receive(), 1);
  EXPECT_EQ(box.Receive(), 2);
  EXPECT_EQ(box.Receive(), 3);
  EXPECT_EQ(ReceiveNow(box), std::nullopt);
}

TEST(FaultMailboxTest, DropAllSwallowsSilently) {
  FaultPlanConfig config;
  config.control.drop_probability = 1.0;
  FaultPlan plan(config);
  FaultMailbox<int> box(&plan);
  // The sender cannot tell a swallowed message from a delivered one.
  EXPECT_TRUE(box.Send(1));
  EXPECT_TRUE(box.Send(2));
  EXPECT_TRUE(box.Send(3));
  EXPECT_EQ(ReceiveNow(box), std::nullopt);
  EXPECT_EQ(plan.stats().drops, 3u);
}

TEST(FaultMailboxTest, DuplicateAllDeliversTwiceInOrder) {
  FaultPlanConfig config;
  config.control.duplicate_probability = 1.0;
  FaultPlan plan(config);
  FaultMailbox<int> box(&plan);
  box.Send(1);
  box.Send(2);
  box.Send(3);
  for (int expected : {1, 1, 2, 2, 3, 3}) {
    EXPECT_EQ(box.Receive(), expected);
  }
  EXPECT_EQ(ReceiveNow(box), std::nullopt);
}

TEST(FaultMailboxTest, CloseMakesDelayedMessagesDrainImmediately) {
  FaultPlanConfig config;
  config.control.delay_probability = 1.0;
  config.control.delay_mean = Duration::Seconds(10.0);
  FaultPlan plan(config);
  FaultMailbox<int> box(&plan);
  for (int i = 0; i < 5; ++i) box.Send(i);
  // Messages delayed by ~10 s are not yet visible...
  EXPECT_EQ(ReceiveNow(box), std::nullopt);
  EXPECT_FALSE(box.drained());
  // ...but shutdown must drain injected latency, not wait it out.
  box.Close();
  int received = 0;
  while (box.Receive().has_value()) ++received;
  EXPECT_EQ(received, 5);
}

TEST(FaultMailboxTest, SendReliableBypassesFaults) {
  FaultPlanConfig config;
  config.control.drop_probability = 1.0;
  FaultPlan plan(config);
  FaultMailbox<int> box(&plan);
  box.Send(1);  // swallowed
  EXPECT_TRUE(box.SendReliable(42));
  EXPECT_EQ(ReceiveNow(box), 42);
  EXPECT_EQ(ReceiveNow(box), std::nullopt);
}

TEST(FaultMailboxTest, ReceiveUntilHonorsDeadlineWithDelayedTraffic) {
  FaultPlanConfig config;
  config.control.delay_probability = 1.0;
  config.control.delay_mean = Duration::Seconds(30.0);
  FaultPlan plan(config);
  FaultMailbox<int> box(&plan);
  box.Send(7);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  EXPECT_EQ(box.ReceiveUntil(deadline), std::nullopt);
  EXPECT_FALSE(box.drained());
}

TEST(FaultMailboxTest, ConcurrentProducersUnderDuplication) {
  FaultPlanConfig config;
  config.control.duplicate_probability = 1.0;
  FaultPlan plan(config);
  FaultMailbox<int> box(&plan);
  constexpr int kPerProducer = 200;
  {
    std::vector<std::jthread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&box] {
        for (int i = 0; i < kPerProducer; ++i) box.Send(1);
      });
    }
  }
  int total = 0;
  while (auto v = ReceiveNow(box)) total += *v;
  EXPECT_EQ(total, 2 * 4 * kPerProducer);
}

// --- runtime under chaos -------------------------------------------------------

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

double InitLoss(const Model& model, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> params(model.param_dim());
  model.InitParams(params, rng);
  return model.FullLoss(params, 300);
}

TEST(RuntimeChaosTest, ZeroFaultConfigLeavesRuntimeUntouched) {
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 15;
  config.batch_size = 16;
  config.fixed_params.abort_time = Duration::Milliseconds(1.0);
  config.fixed_params.abort_rate = 0.5;
  // Explicit but inert fault config: a present FaultPlanConfig with all-zero
  // probabilities and no events must not change anything.
  config.faults.control.drop_probability = 0.0;
  config.faults.seed = 42;
  RuntimeCluster cluster(TinyModel(1), std::make_shared<ConstantSchedule>(0.2),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, 45u);
  EXPECT_EQ(result.workers_killed, 0u);
  EXPECT_EQ(result.fault_stats.messages_seen, 0u);
  EXPECT_EQ(result.fault_stats.drops, 0u);
  EXPECT_EQ(result.fault_stats.crashes, 0u);
  EXPECT_EQ(result.scheduler_stats.worker_departures, 0u);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

TEST(RuntimeChaosTest, LossyControlPlaneWithKilledWorkerStillConverges) {
  RuntimeConfig config;
  config.num_workers = 4;
  config.iterations_per_worker = 30;
  config.batch_size = 16;
  config.compute_chunks = 8;
  config.chunk_delay = std::chrono::microseconds(200);
  config.fixed_params.abort_time = Duration::Milliseconds(1.0);
  config.fixed_params.abort_rate = 1.0 / 8.0;
  config.faults.control.drop_probability = 0.10;
  config.faults.control.duplicate_probability = 0.15;
  config.faults.control.delay_probability = 0.2;
  config.faults.control.delay_mean = Duration::Milliseconds(1.0);
  // Worker 3 dies early and never comes back. Iterations take >= 1.6 ms of
  // chunk delay alone, so it cannot finish its quota before 20 ms.
  config.faults.crashes.push_back(
      CrashEvent{3, SimTime::FromSeconds(0.02), std::nullopt});
  auto model = TinyModel(2);
  const double init_loss = InitLoss(*model, config.seed);
  RuntimeCluster cluster(model, std::make_shared<ConstantSchedule>(0.2),
                         config);
  const RuntimeResult result = cluster.Run();

  // The run completed despite the dead worker: survivors did all their work.
  EXPECT_EQ(result.workers_killed, 1u);
  EXPECT_EQ(result.fault_stats.crashes, 1u);
  EXPECT_EQ(result.fault_stats.rejoins, 0u);
  EXPECT_GE(result.total_pushes, 90u);   // 3 survivors x 30 iterations
  EXPECT_LT(result.total_pushes, 120u);  // the dead worker's quota is unmet
  // Faults actually fired.
  EXPECT_GT(result.fault_stats.messages_seen, 0u);
  EXPECT_GT(result.fault_stats.drops, 0u);
  EXPECT_GT(result.fault_stats.duplicates, 0u);
  // The scheduler saw the departure, deduped replayed notifies, and kept
  // closing epochs without the dead worker.
  EXPECT_EQ(result.scheduler_stats.worker_departures, 1u);
  EXPECT_EQ(result.scheduler_stats.worker_rejoins, 0u);
  EXPECT_GT(result.scheduler_stats.duplicate_notifies, 0u);
  EXPECT_GE(result.scheduler_stats.lost_worker_epochs_unblocked, 1u);
  // Training still made progress.
  EXPECT_LT(result.final_loss, init_loss);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

TEST(RuntimeChaosTest, DelayedNotifiesAreAllDelivered) {
  // Every control message is delayed, none lost or copied. A worker holds
  // its delayed messages until its next poll point, and one that exits
  // (quota met, or dead for good) delivers the rest at once: every push's
  // notify reaches the scheduler, the dead worker's included.
  RuntimeConfig config;
  config.num_workers = 4;
  config.iterations_per_worker = 30;
  config.batch_size = 16;
  config.compute_chunks = 8;
  config.chunk_delay = std::chrono::microseconds(200);
  config.fixed_params.abort_time = Duration::Milliseconds(1.0);
  config.fixed_params.abort_rate = 1.0 / 8.0;
  config.faults.control.delay_probability = 1.0;
  config.faults.control.delay_mean = Duration::Milliseconds(1.0);
  config.faults.crashes.push_back(
      CrashEvent{3, SimTime::FromSeconds(0.02), std::nullopt});
  RuntimeCluster cluster(TinyModel(7), std::make_shared<ConstantSchedule>(0.2),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.workers_killed, 1u);
  EXPECT_GE(result.total_pushes, 90u);
  EXPECT_LT(result.total_pushes, 120u);
  EXPECT_GT(result.fault_stats.delays, 0u);
  EXPECT_EQ(result.fault_stats.drops, 0u);
  // Delays reorder a worker's notifies, and the scheduler ignores one that
  // arrives after a later iteration's, but it still counts it received.
  EXPECT_EQ(result.scheduler_stats.notifies_received, result.total_pushes);
}

TEST(RuntimeChaosTest, CrashWithRejoinCompletesFullQuota) {
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 20;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(200);
  config.fixed_params.abort_time = Duration::Milliseconds(1.0);
  config.fixed_params.abort_rate = 0.5;
  config.faults.crashes.push_back(CrashEvent{
      2, SimTime::FromSeconds(0.005), SimTime::FromSeconds(0.025)});
  RuntimeCluster cluster(TinyModel(3), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  // The rejoined worker finishes its full quota after coming back.
  EXPECT_EQ(result.total_pushes, 60u);
  EXPECT_EQ(result.workers_killed, 0u);
  EXPECT_EQ(result.fault_stats.crashes, 1u);
  EXPECT_EQ(result.fault_stats.rejoins, 1u);
  EXPECT_EQ(result.scheduler_stats.worker_departures, 1u);
  EXPECT_EQ(result.scheduler_stats.worker_rejoins, 1u);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

// Remembers the largest epoch any push asked a rate for. Pushes apply
// concurrently, so the maximum is kept with a CAS loop.
class MaxEpochSchedule final : public LearningRateSchedule {
 public:
  double Rate(EpochId epoch) const override {
    EpochId seen = max_epoch_.load(std::memory_order_relaxed);
    while (epoch > seen &&
           !max_epoch_.compare_exchange_weak(seen, epoch,
                                             std::memory_order_relaxed)) {
    }
    return 0.1;
  }
  EpochId max_epoch() const {
    return max_epoch_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<EpochId> max_epoch_{0};
};

TEST(RuntimeChaosTest, DeadWorkerDoesNotPinTheLearningRateEpoch) {
  // Worker 2 dies before its first iteration and never returns. The
  // schedule's epoch is the slowest *live* worker's progress, as in the
  // simulator, so the survivors' pushes still advance it: the last push of
  // the last survivor to finish runs at epoch iterations_per_worker - 1.
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 20;
  config.batch_size = 16;
  // ~2 ms per iteration, so the victim's thread is long dead before the
  // survivors' last pushes.
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(500);
  config.faults.crashes.push_back(
      CrashEvent{2, SimTime::Zero(), std::nullopt});
  auto schedule = std::make_shared<MaxEpochSchedule>();
  RuntimeCluster cluster(TinyModel(5), schedule, config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.workers_killed, 1u);
  EXPECT_EQ(result.total_pushes, 40u);
  EXPECT_EQ(schedule->max_epoch(), config.iterations_per_worker - 1);
}

TEST(RuntimeChaosTest, SlowdownWindowStretchesVictimCompute) {
  // One worker runs 8x slower for the whole run; the wall-clock time is
  // dominated by the victim while the run still completes in full.
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 12;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(500);
  config.faults.slowdowns.push_back(SlowdownWindow{
      0, SimTime::Zero(), SimTime::FromSeconds(3600.0), 8.0});
  RuntimeCluster cluster(TinyModel(4), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const auto start = std::chrono::steady_clock::now();
  const RuntimeResult result = cluster.Run();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(result.total_pushes, 36u);
  // The slowed worker's 12 iterations sleep >= 12 * 4 * 4 ms = 192 ms; the
  // healthy workers alone would finish in ~24 ms of sleep time.
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            150);
}

TEST(RuntimeChaosTest, CrashWhileGatedFiresOnTime) {
  // BSP over two workers. Worker 1 runs 50x slower (~200 ms an iteration),
  // so worker 0 finishes iteration 0 in a few milliseconds and then waits
  // in the gate for worker 1's first push. Its crash falls due during that
  // wait: it must fire at crash.at, ending the gated interval there, not
  // once worker 1's push admits the corpse.
  RuntimeConfig config;
  config.num_workers = 2;
  config.iterations_per_worker = 2;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(1000);
  config.consistency.scheme = ConsistencyScheme::kBsp;
  config.faults.slowdowns.push_back(SlowdownWindow{
      1, SimTime::Zero(), SimTime::FromSeconds(3600.0), 50.0});
  const SimTime crash_at = SimTime::FromSeconds(0.03);
  config.faults.crashes.push_back(CrashEvent{0, crash_at, std::nullopt});
  obs::ObsContext ctx;
  config.obs = &ctx;
  RuntimeCluster cluster(TinyModel(6), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.workers_killed, 1u);
  EXPECT_EQ(result.fault_stats.crashes, 1u);
  EXPECT_EQ(result.total_pushes, 3u);  // worker 0's iteration 0, then worker 1

  std::optional<double> gated_end;
  for (const obs::TraceEvent& e : ctx.spans.Events()) {
    if (e.name != "gated" || e.track != 0) continue;
    gated_end = std::max(gated_end.value_or(0.0), e.end().seconds());
  }
  ASSERT_TRUE(gated_end.has_value());
  EXPECT_GE(*gated_end, crash_at.seconds());
  EXPECT_LT(*gated_end, crash_at.seconds() + 0.05);
  // The dead worker's wait is not counted past its crash: well under the
  // ~200 ms worker 1 spends on one iteration.
  EXPECT_LT(result.consistency_blocked_s, 0.1);
}

}  // namespace
}  // namespace specsync
