// End-to-end observability guarantees on the golden fixed-seed simulation:
//
//  1. Determinism: attaching an ObsContext must not change the trace digest —
//     recording is strictly write-only with respect to the engines.
//  2. Fidelity: the Chrome-trace span set must match the TrainingTrace event
//     for event — every push and abort the trace records has exactly one
//     corresponding span ending at the same (worker, time).
//  3. The scheduler audit log agrees with SchedulerStats.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "data/synthetic.h"
#include "harness/experiment.h"
#include "harness/workload.h"
#include "models/softmax_regression.h"
#include "obs/obs.h"
#include "runtime/runtime_cluster.h"
#include "trace/trace.h"

namespace specsync {
namespace {

// The golden_trace_test configuration: fixed-seed 8-worker SpecSync-Adaptive
// on the convex workload, two parameter-server shards.
ExperimentResult RunGoldenSim(obs::ObsContext* obs) {
  const Workload workload = MakeConvexWorkload(/*seed=*/1, /*scale=*/0.2);
  ExperimentConfig config;
  config.cluster = ClusterSpec::Homogeneous(8);
  config.cluster.num_servers = 2;
  config.scheme = SchemeSpec::Adaptive();
  config.max_time = SimTime::FromSeconds(240.0);
  config.stop_on_convergence = false;
  config.seed = 41;
  config.obs = obs;
  return RunExperiment(workload, config);
}

// (worker track, event end time) key for span <-> trace matching.
using Key = std::pair<std::uint32_t, double>;

std::vector<Key> SpanKeys(const std::vector<obs::TraceEvent>& events,
                          const std::string& name) {
  std::vector<Key> keys;
  for (const obs::TraceEvent& e : events) {
    if (e.name == name) keys.emplace_back(e.track, e.end().seconds());
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(ObsIntegrationTest, TraceDigestIdenticalWithObservabilityOnAndOff) {
  const ExperimentResult plain = RunGoldenSim(nullptr);
  obs::ObsContext ctx;
  const ExperimentResult observed = RunGoldenSim(&ctx);
  EXPECT_EQ(TraceDigest(plain.sim.trace), TraceDigest(observed.sim.trace));
  EXPECT_EQ(plain.final_loss, observed.final_loss);
  EXPECT_EQ(plain.sim.scheduler_stats.resyncs_issued,
            observed.sim.scheduler_stats.resyncs_issued);
  // Non-vacuity: the observed run actually recorded things.
  EXPECT_GT(ctx.spans.event_count(), 0u);
  EXPECT_GT(ctx.audit.check_count(), 0u);
}

TEST(ObsIntegrationTest, SpanSetMatchesTrainingTrace) {
  obs::ObsContext ctx;
  const ExperimentResult result = RunGoldenSim(&ctx);
  const TrainingTrace& trace = result.sim.trace;
  ASSERT_GT(trace.total_pushes(), 100u);
  ASSERT_GT(trace.total_aborts(), 0u);

  const auto events = ctx.spans.Events();

  std::vector<Key> trace_pushes;
  for (const PushEvent& e : trace.pushes()) {
    trace_pushes.emplace_back(e.worker, e.time.seconds());
  }
  std::sort(trace_pushes.begin(), trace_pushes.end());
  EXPECT_EQ(SpanKeys(events, "push"), trace_pushes);

  std::vector<Key> trace_aborts;
  for (const AbortEvent& e : trace.aborts()) {
    trace_aborts.emplace_back(e.worker, e.time.seconds());
  }
  std::sort(trace_aborts.begin(), trace_aborts.end());
  EXPECT_EQ(SpanKeys(events, "aborted_compute"), trace_aborts);

  std::vector<Key> trace_pulls;
  for (const PullEvent& e : trace.pulls()) {
    trace_pulls.emplace_back(e.worker, e.time.seconds());
  }
  std::sort(trace_pulls.begin(), trace_pulls.end());
  EXPECT_EQ(SpanKeys(events, "pull"), trace_pulls);
}

TEST(ObsIntegrationTest, CountersAndAuditAgreeWithSchedulerStats) {
  obs::ObsContext ctx;
  const ExperimentResult result = RunGoldenSim(&ctx);
  const SchedulerStats& stats = result.sim.scheduler_stats;

  const auto counters = ctx.metrics.CounterValues();
  const auto value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : counters) {
      if (n == name) return v;
    }
    return 0;
  };
  EXPECT_EQ(value("scheduler.notifies"), stats.notifies_received);
  EXPECT_EQ(value("scheduler.checks"), stats.checks_performed);
  EXPECT_EQ(value("scheduler.resyncs"), stats.resyncs_issued);
  EXPECT_EQ(value("scheduler.stale_checks"), stats.stale_checks_skipped);
  EXPECT_EQ(value("scheduler.retunes"), stats.retunes);
  EXPECT_EQ(value("sim.pushes"), result.sim.total_pushes);
  EXPECT_EQ(value("sim.aborts"), result.sim.total_aborts);

  // One audit record per check timer fired (decided and stale alike), one
  // retune record per epoch retune.
  EXPECT_EQ(ctx.audit.check_count(),
            stats.checks_performed + stats.stale_checks_skipped);
  EXPECT_EQ(ctx.audit.retunes().size(), stats.retunes);
  std::uint64_t resync_records = 0;
  for (const obs::CheckRecord& rec : ctx.audit.checks()) {
    if (rec.outcome == obs::CheckOutcome::kResync) ++resync_records;
    if (rec.outcome != obs::CheckOutcome::kStale) {
      // The decision inputs are internally consistent.
      EXPECT_GE(rec.window_end.seconds(), rec.window_begin.seconds());
      EXPECT_LE(rec.window_end.seconds(), rec.armed_deadline.seconds());
      EXPECT_NEAR(rec.abort_time.seconds(),
                  rec.armed_deadline.seconds() - rec.window_begin.seconds(),
                  1e-12);
      EXPECT_DOUBLE_EQ(
          rec.threshold,
          static_cast<double>(rec.active_workers) * rec.abort_rate);
      EXPECT_EQ(rec.outcome == obs::CheckOutcome::kResync,
                static_cast<double>(rec.pushes_seen) >= rec.threshold);
    }
  }
  EXPECT_EQ(resync_records, stats.resyncs_issued);

  // End-of-run gauges mirror the SimResult.
  const auto gauges = ctx.metrics.GaugeValues();
  const auto gauge = [&](const std::string& name) -> double {
    for (const auto& [n, v] : gauges) {
      if (n == name) return v;
    }
    return -1.0;
  };
  EXPECT_DOUBLE_EQ(gauge("sim.total_pushes"),
                   static_cast<double>(result.sim.total_pushes));
  EXPECT_DOUBLE_EQ(gauge("sim.total_aborts"),
                   static_cast<double>(result.sim.total_aborts));
  EXPECT_GT(gauge("sim.wasted_compute_s"), 0.0);
}

std::shared_ptr<const Model> SmallSoftmaxModel() {
  Rng rng(5);
  ClassificationSpec spec;
  spec.num_examples = 200;
  spec.feature_dim = 8;
  spec.num_classes = 3;
  auto data = std::make_shared<ClassificationDataset>(
      GenerateClassification(spec, rng));
  return std::make_shared<SoftmaxRegressionModel>(std::move(data),
                                                  SoftmaxRegressionConfig{});
}

// The threaded runtime records the same surfaces from real threads: worker
// threads write spans and PS latency histograms concurrently, and append
// the scheduler's audit records through the scheduler calls they make
// themselves. (This test is part of the sanitizer suites — TSan runs it to
// race-check the instruments against live worker interleavings.)
TEST(ObsIntegrationTest, RuntimeClusterRecordsAllSurfaces) {
  auto model = SmallSoftmaxModel();

  RuntimeConfig config;
  config.num_workers = 4;
  config.iterations_per_worker = 12;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.chunk_delay = std::chrono::microseconds(100);
  config.fixed_params.abort_time = Duration::Milliseconds(0.5);
  config.fixed_params.abort_rate = 0.25;

  obs::ObsContext ctx;
  config.obs = &ctx;
  RuntimeCluster cluster(std::move(model),
                         std::make_shared<ConstantSchedule>(0.1), config);
  const RuntimeResult result = cluster.Run();

  const auto counters = ctx.metrics.CounterValues();
  const auto value = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : counters) {
      if (n == name) return v;
    }
    return 0;
  };
  EXPECT_EQ(value("runtime.pushes"), result.total_pushes);
  EXPECT_EQ(value("runtime.aborts"), result.total_aborts);
  EXPECT_EQ(value("scheduler.notifies"), result.scheduler_stats.notifies_received);
  EXPECT_EQ(value("scheduler.resyncs"), result.scheduler_stats.resyncs_issued);
  EXPECT_EQ(ctx.audit.check_count(),
            result.scheduler_stats.checks_performed +
                result.scheduler_stats.stale_checks_skipped);

  // Wall-time surfaces: per-attempt iteration walls and PS service times.
  std::uint64_t iteration_samples = 0;
  std::uint64_t pull_samples = 0;
  for (const auto& [name, hist] : ctx.metrics.Histograms()) {
    if (name == "runtime.iteration_s") iteration_samples = hist->count();
    if (name == "ps.pull_s") pull_samples = hist->count();
  }
  EXPECT_GE(iteration_samples, result.total_pushes);
  EXPECT_GE(pull_samples, result.total_pushes);

  // Every completed push and abort produced a span on some worker track.
  std::uint64_t push_spans = 0;
  std::uint64_t abort_spans = 0;
  for (const obs::TraceEvent& e : ctx.spans.Events()) {
    if (e.name == "push") ++push_spans;
    if (e.name == "aborted_compute") ++abort_spans;
  }
  EXPECT_EQ(push_spans, result.total_pushes);
  EXPECT_EQ(abort_spans, result.total_aborts);
}

// Each in-process push span names its costly step: it contains exactly one
// push.merge, push.store, push.gate and push.notify span on its worker's
// track, all within its bounds (SSP with speculation, so every push passes
// through the gate and notifies the scheduler).
TEST(ObsIntegrationTest, RuntimePushSpansNestTheirSteps) {
  RuntimeConfig config;
  config.num_workers = 2;
  config.num_servers = 2;
  config.iterations_per_worker = 15;
  config.batch_size = 16;
  config.compute_chunks = 4;
  config.consistency.scheme = RuntimeConsistency::kSsp;
  config.consistency.staleness = 1;
  config.fixed_params.abort_time = Duration::Milliseconds(0.5);
  config.fixed_params.abort_rate = 0.25;

  obs::ObsContext ctx;
  config.obs = &ctx;
  RuntimeCluster cluster(SmallSoftmaxModel(),
                         std::make_shared<ConstantSchedule>(0.1), config);
  const RuntimeResult result = cluster.Run();

  const auto events = ctx.spans.Events();
  std::vector<const obs::TraceEvent*> pushes;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "push") pushes.push_back(&e);
  }
  ASSERT_EQ(pushes.size(), result.total_pushes);
  ASSERT_GT(pushes.size(), 0u);
  // Span ends are stored as begin + duration, so allow rounding slack.
  constexpr double kSlack = 1e-9;
  for (const char* step :
       {"push.merge", "push.store", "push.gate", "push.notify"}) {
    std::size_t total = 0;
    for (const obs::TraceEvent& e : events) total += e.name == step ? 1 : 0;
    EXPECT_EQ(total, pushes.size()) << step;
    for (const obs::TraceEvent* push : pushes) {
      std::size_t inside = 0;
      for (const obs::TraceEvent& e : events) {
        if (e.name == step && e.track == push->track &&
            e.begin.seconds() >= push->begin.seconds() - kSlack &&
            e.end().seconds() <= push->end().seconds() + kSlack) {
          ++inside;
        }
      }
      EXPECT_EQ(inside, 1u) << step << " in the push span at "
                            << push->begin.seconds() << " s on track "
                            << push->track;
    }
  }
}

}  // namespace
}  // namespace specsync
