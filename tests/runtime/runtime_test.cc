// Tests for the threaded runtime: mailbox semantics and the full in-process
// cluster under real concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "data/synthetic.h"
#include "models/matrix_factorization.h"
#include "models/softmax_regression.h"
#include "runtime/mailbox.h"
#include "runtime/runtime_cluster.h"
#include "tensor/vector.h"

namespace specsync {
namespace {

TEST(MailboxTest, SendReceiveOrder) {
  Mailbox<int> box;
  EXPECT_TRUE(box.Send(1));
  EXPECT_TRUE(box.Send(2));
  EXPECT_EQ(box.size(), 2u);
  EXPECT_EQ(box.Receive(), 1);
  EXPECT_EQ(box.Receive(), 2);
}

TEST(MailboxTest, TryReceiveEmpty) {
  Mailbox<int> box;
  EXPECT_EQ(box.TryReceive(), std::nullopt);
}

TEST(MailboxTest, CloseReleasesReceiversAndRejectsSends) {
  Mailbox<int> box;
  box.Send(7);
  box.Close();
  EXPECT_FALSE(box.Send(8));
  // Messages sent before close still drain.
  EXPECT_EQ(box.Receive(), 7);
  EXPECT_EQ(box.Receive(), std::nullopt);
  EXPECT_TRUE(box.closed());
}

TEST(MailboxTest, BlockingReceiveWakesOnSend) {
  Mailbox<int> box;
  std::atomic<int> got{0};
  std::jthread receiver([&] {
    auto value = box.Receive();
    got.store(value.value_or(-1));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  box.Send(42);
  receiver.join();
  EXPECT_EQ(got.load(), 42);
}

TEST(MailboxTest, ReceiveUntilTimesOut) {
  Mailbox<int> box;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  EXPECT_EQ(box.ReceiveUntil(deadline), std::nullopt);
  EXPECT_FALSE(box.closed());
}

TEST(MailboxTest, ManyProducersOneConsumer) {
  Mailbox<int> box;
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
  while (auto v = box.TryReceive()) total += *v;
  EXPECT_EQ(total, 4 * kPerProducer);
}

TEST(MailboxTest, PollStatusDistinguishesEmptyFromDrained) {
  Mailbox<int> box;
  int out = 0;
  // Open + empty: more may arrive.
  EXPECT_EQ(box.TryReceive(out), MailboxPoll::kEmpty);
  EXPECT_FALSE(box.drained());
  box.Send(5);
  EXPECT_EQ(box.TryReceive(out), MailboxPoll::kMessage);
  EXPECT_EQ(out, 5);
  box.Send(6);
  box.Close();
  // Closed but not yet drained: the queued message must still come out.
  EXPECT_FALSE(box.drained());
  EXPECT_EQ(box.TryReceive(out), MailboxPoll::kMessage);
  EXPECT_EQ(out, 6);
  // Closed + empty: nothing can ever arrive again.
  EXPECT_EQ(box.TryReceive(out), MailboxPoll::kDrained);
  EXPECT_TRUE(box.drained());
}

TEST(MailboxTest, DrainLoopTerminatesOnPollStatus) {
  // The termination idiom the old bool-optional API couldn't express: poll
  // until kDrained, never spinning forever and never losing pre-close sends.
  Mailbox<int> box;
  {
    std::jthread producer([&box] {
      for (int i = 0; i < 100; ++i) box.Send(i);
      box.Close();
    });
  }
  int received = 0;
  for (;;) {
    int out = 0;
    const MailboxPoll poll = box.TryReceive(out);
    if (poll == MailboxPoll::kDrained) break;
    if (poll == MailboxPoll::kMessage) ++received;
  }
  EXPECT_EQ(received, 100);
}

// --- runtime cluster ----------------------------------------------------------

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

TEST(RuntimeClusterTest, PlainAsyncTrainingCompletes) {
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 15;
  config.batch_size = 16;
  auto model = TinyModel(1);
  const double init_loss = [&] {
    Rng rng(config.seed);
    std::vector<double> params(model->param_dim());
    model->InitParams(params, rng);
    return model->FullLoss(params, 300);
  }();
  RuntimeCluster cluster(model, std::make_shared<ConstantSchedule>(0.2),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, 45u);
  EXPECT_EQ(result.total_aborts, 0u);
  EXPECT_LT(result.final_loss, init_loss);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

TEST(RuntimeClusterTest, SpeculationTriggersAbortsUnderRealThreads) {
  RuntimeConfig config;
  config.num_workers = 4;
  config.iterations_per_worker = 25;
  config.batch_size = 16;
  config.compute_chunks = 8;
  config.chunk_delay = std::chrono::microseconds(300);
  // Hair-trigger speculation: any push from others within 1 ms aborts.
  config.fixed_params.abort_time = Duration::Milliseconds(1.0);
  config.fixed_params.abort_rate = 1.0 / 8.0;
  RuntimeCluster cluster(TinyModel(2), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  // Every worker still completes its quota of iterations.
  EXPECT_EQ(result.total_pushes, 100u);
  EXPECT_GT(result.scheduler_stats.notifies_received, 0u);
  // With four workers interleaving on real threads, at least some windows
  // must have seen a concurrent push and aborted.
  EXPECT_GT(result.total_aborts, 0u);
  // Every abort traces back to a re-sync, but a re-sync can arrive after the
  // worker already finished the targeted iteration ("too late", Sec. IV-A).
  EXPECT_LE(result.total_aborts, result.scheduler_stats.resyncs_issued);
}

TEST(RuntimeClusterTest, AdaptiveModeRuns) {
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 20;
  config.batch_size = 8;
  config.adaptive = true;
  config.chunk_delay = std::chrono::microseconds(200);
  RuntimeCluster cluster(TinyModel(3), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, 60u);
  EXPECT_GT(result.scheduler_stats.retunes, 0u);
}

TEST(RuntimeClusterTest, SparseModelWorks) {
  Rng rng(4);
  RatingsSpec spec;
  spec.num_users = 30;
  spec.num_items = 20;
  spec.num_ratings = 600;
  auto data = std::make_shared<RatingsDataset>(GenerateRatings(spec, rng));
  MatrixFactorizationConfig mf;
  mf.rank = 4;
  auto model = std::make_shared<MatrixFactorizationModel>(std::move(data), mf);

  RuntimeConfig config;
  config.num_workers = 2;
  config.iterations_per_worker = 30;
  config.batch_size = 32;
  config.fixed_params.abort_time = Duration::Milliseconds(0.5);
  config.fixed_params.abort_rate = 0.5;
  RuntimeCluster cluster(model, std::make_shared<ConstantSchedule>(0.02),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, 60u);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

TEST(RuntimeClusterTest, TcpLoopbackTrainingCompletes) {
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 10;
  config.batch_size = 16;
  config.transport = RuntimeTransport::kTcpLoopback;
  auto model = TinyModel(5);
  RuntimeCluster cluster(model, std::make_shared<ConstantSchedule>(0.2),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, 30u);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

TEST(RuntimeClusterTest, TcpLoopbackWithSpeculationCompletes) {
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 12;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(200);
  config.transport = RuntimeTransport::kTcpLoopback;
  config.fixed_params.abort_time = Duration::Milliseconds(1.0);
  config.fixed_params.abort_rate = 1.0 / 8.0;
  RuntimeCluster cluster(TinyModel(6), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  // Aborted iterations are retried, so the push quota still lands exactly.
  EXPECT_EQ(result.total_pushes, 36u);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

TEST(RuntimeClusterTest, FinalEvalConfigControlsLossEvaluation) {
  RuntimeConfig config;
  config.num_workers = 2;
  config.iterations_per_worker = 5;
  config.batch_size = 8;
  auto model = TinyModel(7);
  const auto schedule = std::make_shared<ConstantSchedule>(0.2);

  config.final_eval = false;  // skipped entirely: loss stays at its default
  const RuntimeResult skipped =
      RuntimeCluster(model, schedule, config).Run();
  EXPECT_EQ(skipped.final_loss, 0.0);
  EXPECT_TRUE(AllFinite(skipped.final_weights));

  config.final_eval = true;
  config.final_eval_samples = 50;  // cheap subsample still evaluates
  const RuntimeResult cheap = RuntimeCluster(model, schedule, config).Run();
  EXPECT_GT(cheap.final_loss, 0.0);
}

TEST(RuntimeClusterTest, SspGatingBoundsRealThreadSkew) {
  // Gated runtime: one worker slowed 8x must drag the rest to within the
  // staleness bound. The gate's telemetry shows the fast workers actually
  // waited, and every quota still completes (liveness under real threads).
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 20;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(300);
  config.consistency.scheme = RuntimeConsistency::kSsp;
  config.consistency.staleness = 2;
  config.faults.slowdowns.push_back(SlowdownWindow{
      0, SimTime::Zero(), SimTime::FromSeconds(3600.0), 8.0});
  RuntimeCluster cluster(TinyModel(8), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, 60u);
  EXPECT_GT(result.consistency_blocks, 0u);
  EXPECT_GT(result.consistency_blocked_s, 0.0);
  EXPECT_EQ(result.final_staleness, 2u);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

TEST(RuntimeClusterTest, DsspRetunesOnRealThreads) {
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 25;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(300);
  config.consistency.scheme = RuntimeConsistency::kDssp;
  config.consistency.dssp.initial_staleness = 0;
  config.faults.slowdowns.push_back(SlowdownWindow{
      0, SimTime::Zero(), SimTime::FromSeconds(3600.0), 6.0});
  RuntimeCluster cluster(TinyModel(9), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, 75u);
  // A 6x straggler against a floor-zero bound must provoke adjustments.
  EXPECT_GT(result.consistency_retunes, 0u);
  EXPECT_GT(result.final_staleness, 0u);
  EXPECT_TRUE(AllFinite(result.final_weights));
}

}  // namespace
}  // namespace specsync
