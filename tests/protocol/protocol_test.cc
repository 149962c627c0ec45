// The worker protocol's rules, driven step by step without either executor:
// re-sync aborts, commits from crashed workers and lost pushes, the global
// epoch under crashes, and the blocked-time account. Each worker's
// WorkerStep makes its pull and compute-end calls.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "data/sharding.h"
#include "data/synthetic.h"
#include "fault/fault_plan.h"
#include "models/softmax_regression.h"
#include "protocol/worker_protocol.h"
#include "protocol/worker_step.h"

namespace specsync {
namespace {

SimTime T(double s) { return SimTime::FromSeconds(s); }

std::shared_ptr<const Model> TinyModel() {
  Rng rng(1);
  ClassificationSpec spec;
  spec.num_examples = 64;
  spec.feature_dim = 4;
  spec.num_classes = 3;
  auto data = std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
  return std::make_shared<SoftmaxRegressionModel>(std::move(data),
                                                  SoftmaxRegressionConfig{});
}

// A protocol over `num_workers` workers and two shards with no faults
// planned, and a one-chunk step per worker. Speculation is on unless the
// scheme says otherwise.
class ProtocolFixture {
 public:
  explicit ProtocolFixture(std::size_t num_workers, SchemeSpec scheme = {},
                           bool speculate = true)
      : model_(TinyModel()),
        faults_(FaultPlanConfig{}),
        protocol_(model_, std::make_shared<ConstantSchedule>(0.1),
                  Config(num_workers, std::move(scheme), speculate), faults_,
                  Rng(7)) {
    auto shards = ShardIndices(model_->dataset_size(), num_workers);
    steps_.reserve(num_workers);
    for (WorkerId w = 0; w < num_workers; ++w) {
      steps_.emplace_back(protocol_, *model_, w,
                          BatchSampler(std::move(shards[w]), 4, Rng(w)), 1);
    }
  }

  WorkerProtocol& operator*() { return protocol_; }
  WorkerProtocol* operator->() { return &protocol_; }
  WorkerStep& step(WorkerId w) { return steps_[w]; }
  const FaultPlan& faults() const { return faults_; }

 private:
  static WorkerProtocolConfig Config(std::size_t num_workers,
                                     SchemeSpec scheme, bool speculate) {
    WorkerProtocolConfig config;
    config.num_workers = num_workers;
    config.num_servers = 2;
    config.scheme = std::move(scheme);
    if (speculate) {
      config.scheme.speculation = SpeculationMode::kFixed;
      config.scheme.fixed_params.abort_time = Duration::Seconds(0.5);
      config.scheme.fixed_params.abort_rate = 0.5;
    }
    config.metric_prefix = "test";
    return config;
  }

  std::shared_ptr<const Model> model_;
  FaultPlan faults_;
  WorkerProtocol protocol_;
  std::vector<WorkerStep> steps_;
};

// One full iteration of worker w: admitted, pulled, computed and committed
// (landed) at time `at`, touching `write_set`.
IterationId RunIteration(ProtocolFixture& protocol, WorkerId w, SimTime at,
                         const std::vector<std::size_t>& write_set = {}) {
  EXPECT_TRUE(protocol->Admit(w, at));
  protocol.step(w).Pulled(at, at);
  protocol.step(w).EndCompute(at);
  const std::optional<IterationId> iteration =
      protocol->Commit(w, at, write_set, /*landed=*/true);
  EXPECT_TRUE(iteration.has_value());
  return iteration.value_or(0);
}

// --- re-sync aborts ------------------------------------------------------------

TEST(WorkerProtocolTest, DuplicatedReSyncsAbortAnIterationOnce) {
  ProtocolFixture protocol(2);
  RunIteration(protocol, 0, T(1.0));  // iteration 0 commits, notifies
  protocol.step(0).Pulled(T(1.0), T(1.0));  // computing iteration 1
  const std::optional<Duration> wasted =
      protocol->ReSync(0, /*notified_iteration=*/0, T(1.25));
  ASSERT_TRUE(wasted.has_value());
  EXPECT_EQ(*wasted, Duration::Seconds(0.25));
  EXPECT_EQ(protocol->aborts(), 1u);

  // The worker re-pulls and restarts iteration 1; the duplicate re-sync of
  // the same notify, and a replay delivered later still, leave it alone.
  protocol.step(0).Pulled(T(1.5), T(1.5));
  EXPECT_FALSE(protocol->ReSync(0, 0, T(1.6)).has_value());
  EXPECT_FALSE(protocol->ReSync(0, 0, T(1.7)).has_value());
  EXPECT_EQ(protocol->aborts(), 1u);
  EXPECT_EQ(protocol->completed(0), 1u);
}

TEST(WorkerProtocolTest, ReSyncIsIgnoredWhilePullingAndAfterCommit) {
  ProtocolFixture protocol(2);
  RunIteration(protocol, 0, T(1.0));

  // Delivered mid-pull: not computing, so the snapshot will be fresh anyway,
  // and the computation that starts next is not aborted by it.
  EXPECT_FALSE(protocol->ReSync(0, 0, T(1.1)).has_value());
  protocol.step(0).Pulled(T(1.2), T(1.2));
  EXPECT_EQ(protocol->aborts(), 0u);

  // Iteration 1 commits; a late re-sync for it no longer aborts anything,
  // not even the computation of iteration 2.
  protocol.step(0).EndCompute(T(1.4));
  ASSERT_EQ(protocol->Commit(0, T(1.4), {}, /*landed=*/true), 1u);
  protocol.step(0).Pulled(T(1.5), T(1.5));
  EXPECT_FALSE(protocol->ReSync(0, 0, T(1.6)).has_value());
  EXPECT_EQ(protocol->aborts(), 0u);

  // The re-sync for iteration 2's own window does abort it.
  EXPECT_TRUE(protocol->ReSync(0, 1, T(1.7)).has_value());
  EXPECT_EQ(protocol->aborts(), 1u);
}

// --- commits -------------------------------------------------------------------

TEST(WorkerProtocolTest, PushInFlightFromCrashedWorkerCommitsButEndsThere) {
  ProtocolFixture protocol(2, SchemeSpec::Bsp());
  ASSERT_TRUE(protocol->Admit(0, T(0.0)));
  protocol.step(0).Pulled(T(0.0), T(0.0));
  protocol.step(0).EndCompute(T(1.0));
  // The push is on the wire when the worker crashes.
  const std::optional<ControlMessage> down = protocol->Crash(0, T(1.1));
  ASSERT_TRUE(down.has_value());
  EXPECT_EQ(down->kind, ControlMessage::Kind::kWorkerDown);
  EXPECT_FALSE(protocol->Crash(0, T(1.15)).has_value());  // already down
  EXPECT_EQ(protocol.faults().stats().crashes, 1u);

  // It lands: the store and the consistency layer count it...
  EXPECT_EQ(protocol->Commit(0, T(1.2), std::vector<std::size_t>{0, 1}, /*landed=*/true), 0u);
  EXPECT_EQ(protocol->completed(0), 1u);
  // ...but the dead worker neither notifies nor starts another iteration.
  EXPECT_FALSE(protocol->Notify(0, 0, T(1.2)).has_value());
  EXPECT_FALSE(protocol->Admit(0, T(1.2)));
  EXPECT_FALSE(protocol->blocked(0));

  // A live worker's commit notifies.
  RunIteration(protocol, 1, T(2.0));
  const std::optional<ControlMessage> notify = protocol->Notify(1, 0, T(2.0));
  ASSERT_TRUE(notify.has_value());
  EXPECT_EQ(notify->kind, ControlMessage::Kind::kNotify);
  EXPECT_EQ(notify->iteration, 0u);
}

TEST(WorkerProtocolTest, LostPushStillAdvancesProgressAndWriteSet) {
  // Per-shard SSP with bound 0: write sets are learned from commits.
  ProtocolFixture protocol(2, SchemeSpec::PerShardSsp(0), false);
  // Worker 1 writes shard 0 and moves on to iteration 1 unopposed.
  RunIteration(protocol, 1, T(1.0), {0});
  ASSERT_TRUE(protocol->Admit(1, T(1.0)));

  // Worker 0's push to shard 0 is lost on every slice.
  ASSERT_TRUE(protocol->Admit(0, T(1.0)));
  protocol.step(0).Pulled(T(1.0), T(1.0));
  protocol.step(0).EndCompute(T(2.0));
  EXPECT_EQ(protocol->Commit(0, T(2.0), std::vector<std::size_t>{0},
                             /*landed=*/false),
            0u);
  EXPECT_EQ(protocol->completed(0), 1u);

  // The lost push still made worker 0 a writer of shard 0 at clock 1, so
  // worker 1, at clock 2 after its next commit, now waits for it.
  protocol->Commit(1, T(3.0), std::vector<std::size_t>{0}, /*landed=*/true);
  EXPECT_FALSE(protocol->Admit(1, T(3.0)));
  EXPECT_TRUE(protocol->blocked(1));

  // A lost push from a worker that crashed meanwhile commits nothing.
  ASSERT_TRUE(protocol->Admit(0, T(3.0)));
  protocol->Crash(0, T(3.5));
  EXPECT_FALSE(protocol->Commit(0, T(4.0), std::vector<std::size_t>{0},
                                /*landed=*/false)
                   .has_value());
  EXPECT_EQ(protocol->completed(0), 1u);
  // The crash excused worker 0 from the bound: worker 1 may go on.
  EXPECT_TRUE(protocol->Admit(1, T(4.0)));
}

// --- global epoch --------------------------------------------------------------

TEST(WorkerProtocolTest, GlobalEpochSkipsDeadWorkers) {
  ProtocolFixture protocol(3, SchemeSpec::Original(), false);
  RunIteration(protocol, 0, T(1.0));
  RunIteration(protocol, 0, T(2.0));
  RunIteration(protocol, 1, T(2.0));
  EXPECT_EQ(protocol->GlobalEpoch(), 0u);  // worker 2 has done nothing
  protocol->Crash(2, T(3.0));
  EXPECT_EQ(protocol->GlobalEpoch(), 1u);  // worker 1 is the slowest live one
  protocol->Crash(1, T(3.0));
  EXPECT_EQ(protocol->GlobalEpoch(), 2u);
  // Everybody down: the overall minimum, not the last survivor's progress.
  protocol->Crash(0, T(3.0));
  EXPECT_EQ(protocol->GlobalEpoch(), 0u);
  EXPECT_FALSE(protocol->Rejoin(1).has_value());  // speculation off
  EXPECT_TRUE(protocol->live(1));
  EXPECT_EQ(protocol->GlobalEpoch(), 1u);
  EXPECT_EQ(protocol.faults().stats().rejoins, 1u);
}

// --- the blocked-time account --------------------------------------------------

TEST(WorkerProtocolTest, BlockedIntervalsCountOnceAndCloseOnAdmitOrCrash) {
  ProtocolFixture protocol(3, SchemeSpec::Bsp(), false);
  RunIteration(protocol, 0, T(1.0));
  RunIteration(protocol, 2, T(1.0));
  // Worker 0 waits for worker 1 from t=1; asking again does not re-count.
  EXPECT_FALSE(protocol->Admit(0, T(1.0)));
  EXPECT_FALSE(protocol->Admit(0, T(2.0)));
  // Worker 2 waits from t=1.5 and crashes at t=2.5 while still waiting.
  EXPECT_FALSE(protocol->Admit(2, T(1.5)));
  protocol->Crash(2, T(2.5));
  EXPECT_FALSE(protocol->blocked(2));
  // Worker 1 commits at t=3.5; worker 0 is admitted at t=4.
  RunIteration(protocol, 1, T(3.5));
  EXPECT_TRUE(protocol->Admit(0, T(4.0)));

  // Worker 1 runs one more iteration, then waits for worker 0 and is still
  // waiting at the end.
  RunIteration(protocol, 1, T(4.5));
  EXPECT_FALSE(protocol->Admit(1, T(5.0)));
  const ConsistencyStats stats = protocol->Finish(T(7.0));
  EXPECT_EQ(stats.blocks, 3u);
  EXPECT_DOUBLE_EQ(stats.blocked_seconds, 3.0 + 1.0 + 2.0);
  EXPECT_EQ(stats.final_staleness, 0u);
  EXPECT_FALSE(protocol->blocked(1));
}

TEST(WorkerProtocolTest, UngatedSchemesNeverBlock) {
  ProtocolFixture protocol(2, SchemeSpec::Original(), false);
  EXPECT_FALSE(protocol->gated());
  EXPECT_EQ(protocol->scheduler(), nullptr);
  for (int i = 0; i < 5; ++i) RunIteration(protocol, 0, T(i));
  EXPECT_TRUE(protocol->Admit(0, T(5.0)));
  const ConsistencyStats stats = protocol->Finish(T(6.0));
  EXPECT_EQ(stats.blocks, 0u);
  EXPECT_EQ(stats.blocked_seconds, 0.0);
  // No scheduler: no pull notice, no notify.
  EXPECT_FALSE(protocol.step(0).Pulled(T(6.0), T(6.0)).has_value());
  EXPECT_FALSE(protocol->Notify(0, 4, T(6.0)).has_value());
}

// --- scheduler side ------------------------------------------------------------

TEST(WorkerProtocolTest, DeliveredNotifyArmsACheck) {
  ProtocolFixture protocol(2);
  ASSERT_NE(protocol->scheduler(), nullptr);
  const std::optional<ControlMessage> pull =
      protocol.step(0).Pulled(T(0.0), T(0.0));
  ASSERT_TRUE(pull.has_value());
  EXPECT_FALSE(protocol->Deliver(*pull, T(0.0)).has_value());
  RunIteration(protocol, 0, T(1.0));
  const std::optional<ControlMessage> notify = protocol->Notify(0, 0, T(1.0));
  ASSERT_TRUE(notify.has_value());
  const auto check = protocol->Deliver(*notify, T(1.0));
  ASSERT_TRUE(check.has_value());  // Cherrypick speculates from the start
  EXPECT_EQ(check->delay, Duration::Seconds(0.5));
  EXPECT_EQ(protocol->scheduler()->stats().notifies_received, 1u);
}

}  // namespace
}  // namespace specsync
