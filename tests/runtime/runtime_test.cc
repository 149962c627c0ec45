// Tests for the threaded runtime: mailbox semantics and the full in-process
// cluster under real concurrency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "data/synthetic.h"
#include "models/matrix_factorization.h"
#include "models/softmax_regression.h"
#include "obs/obs.h"
#include "runtime/fault_mailbox.h"
#include "runtime/runtime_cluster.h"
#include "tensor/vector.h"

namespace specsync {
namespace {

// A non-blocking receive: the next ready message, or nullopt at once.
std::optional<int> ReceiveNow(FaultMailbox<int>& box) {
  return box.ReceiveUntil(std::chrono::steady_clock::now());
}

TEST(MailboxTest, SendReceiveOrder) {
  FaultMailbox<int> box;
  EXPECT_TRUE(box.Send(1));
  EXPECT_TRUE(box.Send(2));
  EXPECT_EQ(box.Receive(), 1);
  EXPECT_EQ(box.Receive(), 2);
  EXPECT_EQ(ReceiveNow(box), std::nullopt);
}

TEST(MailboxTest, TryReceiveEmpty) {
  FaultMailbox<int> box;
  EXPECT_EQ(ReceiveNow(box), std::nullopt);
  EXPECT_FALSE(box.drained());
}

TEST(MailboxTest, CloseReleasesReceiversAndRejectsSends) {
  FaultMailbox<int> box;
  box.Send(7);
  box.Close();
  EXPECT_FALSE(box.Send(8));
  // Messages sent before close still drain.
  EXPECT_EQ(box.Receive(), 7);
  EXPECT_EQ(box.Receive(), std::nullopt);
  EXPECT_TRUE(box.drained());
}

TEST(MailboxTest, BlockingReceiveWakesOnSend) {
  FaultMailbox<int> box;
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
  FaultMailbox<int> box;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  EXPECT_EQ(box.ReceiveUntil(deadline), std::nullopt);
  EXPECT_FALSE(box.drained());
}

TEST(MailboxTest, ManyProducersOneConsumer) {
  FaultMailbox<int> box;
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
  EXPECT_EQ(total, 4 * kPerProducer);
}

TEST(MailboxTest, PollStatusDistinguishesEmptyFromDrained) {
  FaultMailbox<int> box;
  // Open + empty: more may arrive.
  EXPECT_EQ(ReceiveNow(box), std::nullopt);
  EXPECT_FALSE(box.drained());
  box.Send(5);
  EXPECT_EQ(ReceiveNow(box), 5);
  box.Send(6);
  box.Close();
  // Closed but not yet drained: the queued message must still come out.
  EXPECT_FALSE(box.drained());
  EXPECT_EQ(ReceiveNow(box), 6);
  // Closed + empty: nothing can ever arrive again.
  EXPECT_EQ(ReceiveNow(box), std::nullopt);
  EXPECT_TRUE(box.drained());
}

TEST(MailboxTest, DrainLoopTerminatesOnPollStatus) {
  // The runtime's termination idiom: receive until nothing comes and the
  // mailbox is drained, never spinning forever and never losing pre-close
  // sends.
  FaultMailbox<int> box;
  {
    std::jthread producer([&box] {
      for (int i = 0; i < 100; ++i) box.Send(i);
      box.Close();
    });
  }
  int received = 0;
  for (;;) {
    if (ReceiveNow(box).has_value()) {
      ++received;
    } else if (box.drained()) {
      break;
    }
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

// Over TCP with no gate, every push but a worker's last also fetches the
// next iteration's snapshot in the same round trip. Each logical pull (one
// per attempted iteration) is still served exactly once, and a prefetched
// snapshot is never reused after an abort.
void ExpectOnePullServedPerLogicalPull(RuntimeConfig config,
                                       std::uint64_t quota,
                                       bool expect_aborts) {
  obs::ObsContext obs;
  config.transport = RuntimeTransport::kTcpLoopback;
  config.obs = &obs;
  RuntimeCluster cluster(TinyModel(7), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, quota);
  EXPECT_TRUE(AllFinite(result.final_weights));
  EXPECT_EQ(result.total_aborts > 0, expect_aborts);
  const std::uint64_t pulls = obs.metrics.counter("runtime.pulls").value();
  // Every attempt pulls once: the completed iterations plus the aborted.
  EXPECT_EQ(pulls, result.total_pushes + result.total_aborts);
  // One server: each logical pull is one pull batch it served.
  EXPECT_EQ(obs.metrics.histogram("net.server.pull_s").count(), pulls);
  // One round trip per push; only each worker's first pull and the re-pulls
  // after aborts travel alone.
  EXPECT_EQ(obs.metrics.histogram("net.rtt_s").count(),
            result.total_pushes + config.num_workers + result.total_aborts);
}

TEST(RuntimeClusterTest, TcpAspFusesEachPushWithTheNextPull) {
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 12;
  config.batch_size = 16;
  ExpectOnePullServedPerLogicalPull(config, 36, /*expect_aborts=*/false);
}

TEST(RuntimeClusterTest, TcpSpeculationRepullsAfterAbortsWithFusedPushes) {
  RuntimeConfig config;
  config.num_workers = 4;
  config.iterations_per_worker = 25;
  config.batch_size = 16;
  config.compute_chunks = 8;
  config.chunk_delay = std::chrono::microseconds(300);
  // Hair-trigger speculation, so aborted iterations re-pull.
  config.fixed_params.abort_time = Duration::Milliseconds(1.0);
  config.fixed_params.abort_rate = 1.0 / 8.0;
  ExpectOnePullServedPerLogicalPull(config, 100, /*expect_aborts=*/true);
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

// --- the control plane --------------------------------------------------------

std::size_t ThreadCount() {
  const std::filesystem::directory_iterator tasks("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(tasks, std::filesystem::directory_iterator()));
}

// Forwards to a real model and records every gradient call: when it
// started (obs::WallNanos), and the process's thread count as the calling
// worker sees it.
class WatchedModel final : public Model {
 public:
  struct Call {
    std::uint64_t start_ns;
    std::size_t threads;
  };

  explicit WatchedModel(std::shared_ptr<const Model> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  std::size_t param_dim() const override { return inner_->param_dim(); }
  std::size_t dataset_size() const override { return inner_->dataset_size(); }
  void InitParams(std::span<double> params, Rng& rng) const override {
    inner_->InitParams(params, rng);
  }
  double LossAndGradient(std::span<const double> params,
                         std::span<const std::size_t> batch,
                         Gradient& grad) const override {
    const Call call{obs::WallNanos(), ThreadCount()};
    {
      std::scoped_lock lock(mutex_);
      calls_.push_back(call);
    }
    return inner_->LossAndGradient(params, batch, grad);
  }
  double Loss(std::span<const double> params,
              std::span<const std::size_t> batch) const override {
    return inner_->Loss(params, batch);
  }

  std::vector<Call> calls() const {
    std::scoped_lock lock(mutex_);
    return calls_;
  }

 private:
  std::shared_ptr<const Model> inner_;
  mutable std::mutex mutex_;
  mutable std::vector<Call> calls_;
};

// A run's obs::WallNanos instant on its SimTime axis.
SimTime OnRunClock(const obs::ObsContext& obs, std::uint64_t wall_ns) {
  return SimTime::FromSeconds(
      static_cast<double>(wall_ns - obs.spans.wall_epoch_nanos()) * 1e-9);
}

std::vector<obs::TraceEvent> SpansNamed(const obs::ObsContext& obs,
                                        const std::string& name,
                                        std::uint32_t track) {
  std::vector<obs::TraceEvent> spans;
  for (const obs::TraceEvent& e : obs.spans.Events()) {
    if (e.name == name && e.track == track) spans.push_back(e);
  }
  return spans;
}

TEST(RuntimeControlPlaneTest, SpeculativeRunStartsOnlyWorkerThreads) {
  // The workers deliver their own messages and fire their own checks, so a
  // speculative in-process run adds exactly one thread per worker.
  RuntimeConfig config;
  config.num_workers = 3;
  config.iterations_per_worker = 20;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(200);
  config.fixed_params.abort_time = Duration::Milliseconds(1.0);
  config.fixed_params.abort_rate = 1.0 / 8.0;
  auto model = std::make_shared<WatchedModel>(TinyModel(10));
  RuntimeCluster cluster(model, std::make_shared<ConstantSchedule>(0.1),
                         config);
  // A sanitizer may start a helper thread with the process's first spawned
  // thread; spawn one first so the baseline already counts it. In a plain
  // build the baseline is this test's own thread.
  std::jthread([] {}).join();
  const std::size_t baseline = ThreadCount();
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, 60u);
  EXPECT_GT(result.scheduler_stats.notifies_received, 0u);
  std::size_t most = 0;
  for (const WatchedModel::Call& call : model->calls()) {
    most = std::max(most, call.threads);
  }
  EXPECT_EQ(most, baseline + config.num_workers);
}

TEST(RuntimeControlPlaneTest, AbortLandsAtFirstChunkBoundaryAfterDeadline) {
  // One worker and a zero abort rate: every check re-syncs, so the check
  // armed by each notify aborts the next iteration. Its 4.5 ms deadline
  // falls inside the second 3 ms chunk; the abort lands at the end of the
  // chunk that straddles it, and the audit records the decision as of the
  // armed deadline.
  RuntimeConfig config;
  config.num_workers = 1;
  config.iterations_per_worker = 6;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(3000);
  config.fixed_params.abort_time = Duration::Milliseconds(4.5);
  config.fixed_params.abort_rate = 0.0;
  obs::ObsContext obs;
  config.obs = &obs;
  auto model = std::make_shared<WatchedModel>(TinyModel(11));
  RuntimeCluster cluster(model, std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, 6u);
  EXPECT_GT(result.total_aborts, 0u);
  EXPECT_EQ(result.scheduler_stats.late_checks, 0u);

  const std::vector<obs::CheckRecord> checks = obs.audit.checks();
  for (const obs::CheckRecord& check : checks) {
    EXPECT_EQ(check.outcome, obs::CheckOutcome::kResync);
    EXPECT_EQ(check.fired_at, check.armed_deadline);
    EXPECT_FALSE(check.late);
  }
  std::vector<SimTime> chunk_starts;
  for (const WatchedModel::Call& call : model->calls()) {
    chunk_starts.push_back(OnRunClock(obs, call.start_ns));
  }
  std::sort(chunk_starts.begin(), chunk_starts.end());
  const std::vector<obs::TraceEvent> aborts =
      SpansNamed(obs, "aborted_compute", 0);
  ASSERT_EQ(aborts.size(), result.total_aborts);
  for (const obs::TraceEvent& abort : aborts) {
    const SimTime landed = abort.end();
    // The check that caused it: the last one due by the abort.
    std::optional<SimTime> deadline;
    for (const obs::CheckRecord& check : checks) {
      if (check.armed_deadline <= landed) deadline = check.armed_deadline;
    }
    ASSERT_TRUE(deadline.has_value()) << "abort at " << landed;
    // The chunk that ended at the abort started no later than the deadline
    // (plus scheduling slack far below a chunk): no boundary at or after
    // the deadline came before the one that aborted.
    const auto chunk = std::prev(
        std::upper_bound(chunk_starts.begin(), chunk_starts.end(), landed));
    EXPECT_LT(*chunk, *deadline + Duration::Milliseconds(1.0));
  }
}

TEST(RuntimeControlPlaneTest, CheckDueInTheGateAbortsNothing) {
  // BSP over two workers, worker 1 twenty times slower: after each push
  // worker 0 waits in the gate for worker 1, and its 2 ms check falls due
  // there. Worker 0's zero rate makes every such check re-sync; the check
  // fires once worker 0 is admitted, before its pull, which discards the
  // re-sync. Worker 1's rate is out of reach, so nothing aborts.
  RuntimeConfig config;
  config.num_workers = 2;
  config.iterations_per_worker = 5;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(500);
  config.consistency.scheme = ConsistencyScheme::kBsp;
  config.fixed_params.abort_time = Duration::Milliseconds(2.0);
  config.fixed_params.per_worker_rate = {0.0, 1e9};
  config.faults.slowdowns.push_back(SlowdownWindow{
      1, SimTime::Zero(), SimTime::FromSeconds(3600.0), 20.0});
  obs::ObsContext obs;
  config.obs = &obs;
  RuntimeCluster cluster(TinyModel(12), std::make_shared<ConstantSchedule>(0.1),
                         config);
  const RuntimeResult result = cluster.Run();
  EXPECT_EQ(result.total_pushes, 10u);
  EXPECT_EQ(result.total_aborts, 0u);

  const std::vector<obs::TraceEvent> gated = SpansNamed(obs, "gated", 0);
  std::size_t performed = 0;
  for (const obs::CheckRecord& check : obs.audit.checks()) {
    if (check.worker != 0) continue;
    ++performed;
    EXPECT_EQ(check.outcome, obs::CheckOutcome::kResync);
    EXPECT_TRUE(std::any_of(gated.begin(), gated.end(),
                            [&](const obs::TraceEvent& wait) {
                              return wait.begin <= check.fired_at &&
                                     check.fired_at <= wait.end();
                            }))
        << "check at " << check.fired_at << " fell outside every gate wait";
  }
  // The notifies of iterations 0-3 each armed one; the last one's check
  // is still pending when the worker exits.
  EXPECT_EQ(performed, config.iterations_per_worker - 1);
}

}  // namespace
}  // namespace specsync
