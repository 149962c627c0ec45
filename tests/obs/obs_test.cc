// Unit tests for the observability layer (src/obs): metrics instruments and
// registry, span recorder + Chrome trace export, decision audit log, and the
// metrics.json snapshot exporter.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/span_recorder.h"

namespace specsync::obs {
namespace {

SimTime T(double s) { return SimTime::FromSeconds(s); }

// --- metrics ----------------------------------------------------------------

TEST(MetricsTest, CounterIncrements) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(5);
  EXPECT_EQ(c.value(), 6u);
}

TEST(MetricsTest, GaugeSetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(MetricsTest, HistogramBucketsDoubling) {
  LatencyHistogram h;
  h.Record(0.5e-6);  // <= 1us -> bucket 0
  h.Record(1.5e-6);  // (1us, 2us] -> bucket 1
  h.Record(3.0e-6);  // (2us, 4us] -> bucket 2
  h.Record(1.0);     // seconds range
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_DOUBLE_EQ(h.max_seconds(), 1.0);
  EXPECT_NEAR(h.sum_seconds(), 1.0 + 4.5e-6 + 0.5e-6, 1e-12);
  EXPECT_NEAR(h.mean_seconds(), h.sum_seconds() / 4.0, 1e-15);
}

TEST(MetricsTest, HistogramUpperBounds) {
  EXPECT_DOUBLE_EQ(LatencyHistogram::UpperBoundSeconds(0), 1e-6);
  EXPECT_DOUBLE_EQ(LatencyHistogram::UpperBoundSeconds(1), 2e-6);
  EXPECT_TRUE(std::isinf(
      LatencyHistogram::UpperBoundSeconds(LatencyHistogram::kBuckets - 1)));
}

TEST(MetricsTest, HistogramNegativeSampleClampsToZero) {
  LatencyHistogram h;
  h.Record(-1.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_DOUBLE_EQ(h.sum_seconds(), 0.0);
}

TEST(MetricsTest, HistogramMergeAddsBucketwise) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(1e-3);
  b.Record(1e-3);
  b.Record(2.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max_seconds(), 2.0);
  EXPECT_NEAR(a.sum_seconds(), 2.002, 1e-12);
  // b unchanged.
  EXPECT_EQ(b.count(), 2u);
}

TEST(MetricsTest, HistogramQuantilesBracketObservations) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.Record(1e-3);  // all in one bucket
  const double p50 = h.ApproxQuantileSeconds(0.5);
  // The bucket containing 1ms is (512us, 1024us]; the estimate must land in
  // it.
  EXPECT_GE(p50, 512e-6);
  EXPECT_LE(p50, 1024e-6);
  EXPECT_LE(h.ApproxQuantileSeconds(0.1), h.ApproxQuantileSeconds(0.99));
  LatencyHistogram empty;
  EXPECT_EQ(empty.ApproxQuantileSeconds(0.5), 0.0);
}

TEST(MetricsTest, HistogramQuantileDegenerateCasesPinned) {
  // The three degenerate cases documented on ApproxQuantileSeconds — every
  // one must return a FINITE number (exporters turn non-finite into null, but
  // the quantile itself must never need that escape hatch).
  LatencyHistogram empty;
  for (const double q : {0.0, 0.5, 1.0}) {
    EXPECT_EQ(empty.ApproxQuantileSeconds(q), 0.0) << "q=" << q;
  }

  // All observations in bucket 0 (the sub-1us bucket has no lower log edge,
  // so interpolation is pinned to min(max, first upper bound)).
  LatencyHistogram sub_us;
  sub_us.Record(1e-9);
  sub_us.Record(2e-9);
  for (const double q : {0.01, 0.5, 0.99}) {
    const double v = sub_us.ApproxQuantileSeconds(q);
    EXPECT_TRUE(std::isfinite(v)) << "q=" << q;
    EXPECT_EQ(v, std::min(sub_us.max_seconds(),
                          LatencyHistogram::kFirstUpperBoundSeconds))
        << "q=" << q;
  }

  // Quantile landing in the open-ended last bucket: capped at the observed
  // max, never the bucket's infinite upper bound.
  LatencyHistogram huge;
  huge.Record(1e10);  // beyond UpperBoundSeconds(kBuckets - 2): last bucket
  const double p99 = huge.ApproxQuantileSeconds(0.99);
  EXPECT_TRUE(std::isfinite(p99));
  EXPECT_LE(p99, huge.max_seconds());
  EXPECT_EQ(huge.ApproxQuantileSeconds(1.0), huge.max_seconds());
}

TEST(ObsExportTest, HistogramJsonNeverEmitsNaN) {
  // Exporters must survive every degenerate histogram: empty, bucket-0-only,
  // and last-bucket-only must all serialize to valid finite JSON (non-finite
  // values would have to become null, and "nan"/"inf" must never appear).
  ObsContext ctx;
  (void)ctx.metrics.histogram("h.empty");
  ctx.metrics.histogram("h.subus").Record(1e-9);
  ctx.metrics.histogram("h.huge").Record(1e10);
  std::ostringstream os;
  WriteMetricsJson(ctx, os);
  const std::string out = os.str();
  EXPECT_EQ(out.find("nan"), std::string::npos);
  EXPECT_EQ(out.find("inf"), std::string::npos);
  EXPECT_NE(out.find("\"h.huge\""), std::string::npos);
}

TEST(MetricsTest, ScopedTimerRecordsOneSample) {
  LatencyHistogram h;
  { ScopedTimer timer(&h); }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum_seconds(), 0.0);
}

TEST(MetricsTest, ScopedTimerNullIsNoop) {
  ScopedTimer timer(nullptr);  // must not crash or record
}

TEST(MetricsTest, RegistryReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  a.Increment();
  // Forcing rebalancing of the map must not invalidate `a`.
  for (int i = 0; i < 100; ++i) {
    registry.counter("c" + std::to_string(i));
  }
  Counter& again = registry.counter("x");
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(again.value(), 1u);
}

TEST(MetricsTest, RegistrySnapshotsAreNameSorted) {
  MetricsRegistry registry;
  registry.counter("zeta").Increment(2);
  registry.counter("alpha").Increment(1);
  registry.gauge("g").Set(1.5);
  registry.histogram("h").Record(0.25);
  const auto counters = registry.CounterValues();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].first, "alpha");
  EXPECT_EQ(counters[1].first, "zeta");
  EXPECT_EQ(counters[1].second, 2u);
  ASSERT_EQ(registry.GaugeValues().size(), 1u);
  ASSERT_EQ(registry.Histograms().size(), 1u);
  EXPECT_EQ(registry.Histograms()[0].second->count(), 1u);
}

TEST(MetricsTest, ConcurrentRecordingLosesNothing) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("hits");
  LatencyHistogram& hist = registry.histogram("lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.Increment();
        hist.Record(1e-4);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kThreads * kPerThread));
}

// --- span recorder ----------------------------------------------------------

TEST(SpanRecorderTest, RecordsSpansAndInstantsInOrder) {
  SpanRecorder spans;
  spans.AddSpan("compute", "compute", 0, T(1.0), T(2.5));
  spans.AddInstant("notify", "control", 0, T(2.5));
  EXPECT_EQ(spans.event_count(), 2u);
  const auto events = spans.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "compute");
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kSpan);
  EXPECT_DOUBLE_EQ(events[0].end().seconds(), 2.5);
  EXPECT_DOUBLE_EQ(events[0].duration.seconds(), 1.5);
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::kInstant);
  EXPECT_DOUBLE_EQ(events[1].duration.seconds(), 0.0);
}

TEST(SpanRecorderTest, ChromeTraceJsonShape) {
  SpanRecorder spans;
  spans.SetTrackName(0, "worker 0");
  spans.AddSpan("compute", "compute", 0, T(1.0), T(2.0),
                {{"iteration", "7"}, {"note", "abc"}});
  spans.AddInstant("notify", "control", 0, T(2.0));
  std::ostringstream os;
  spans.ExportChromeTrace(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  // Track-name metadata event.
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("worker 0"), std::string::npos);
  // Complete event: 1s -> 1e6 us timestamp, 1e6 us duration.
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"ts\":1000000"), std::string::npos);
  EXPECT_NE(out.find("\"dur\":1000000"), std::string::npos);
  // Instant event with thread scope.
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  // Numeric args are emitted unquoted, strings quoted.
  EXPECT_NE(out.find("\"iteration\":7"), std::string::npos);
  EXPECT_NE(out.find("\"note\":\"abc\""), std::string::npos);
}

TEST(SpanRecorderTest, ConcurrentAppendsAllLand) {
  SpanRecorder spans;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        spans.AddSpan("s", "c", static_cast<std::uint32_t>(t),
                      T(static_cast<double>(i)),
                      T(static_cast<double>(i) + 0.5));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(spans.event_count(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

// --- audit log --------------------------------------------------------------

TEST(AuditLogTest, RecordsChecksAndRetunes) {
  DecisionAuditLog log;
  CheckRecord check;
  check.worker = 2;
  check.token = 17;
  check.fired_at = T(3.0);
  check.outcome = CheckOutcome::kResync;
  check.window_begin = T(2.5);
  check.window_end = T(3.0);
  check.armed_deadline = T(3.0);
  check.pushes_seen = 4;
  check.abort_time = Duration::Seconds(0.5);
  check.abort_rate = 0.3;
  check.threshold = 1.2;
  check.active_workers = 4;
  log.RecordCheck(check);
  RetuneRecord retune;
  retune.epoch = 1;
  retune.at = T(4.0);
  retune.abort_time = Duration::Seconds(0.4);
  retune.abort_rate = 0.25;
  retune.epoch_pushes = 12;
  log.RecordRetune(retune);

  EXPECT_EQ(log.check_count(), 1u);
  const auto checks = log.checks();
  ASSERT_EQ(checks.size(), 1u);
  EXPECT_EQ(checks[0].worker, 2u);
  EXPECT_EQ(checks[0].outcome, CheckOutcome::kResync);
  EXPECT_EQ(checks[0].pushes_seen, 4u);
  const auto retunes = log.retunes();
  ASSERT_EQ(retunes.size(), 1u);
  EXPECT_EQ(retunes[0].epoch_pushes, 12u);

  std::ostringstream os;
  log.ExportJson(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"checks\""), std::string::npos);
  EXPECT_NE(out.find("\"resync\""), std::string::npos);
  EXPECT_NE(out.find("\"retunes\""), std::string::npos);
}

TEST(AuditLogTest, OutcomeNames) {
  EXPECT_STREQ(CheckOutcomeName(CheckOutcome::kStale), "stale");
  EXPECT_STREQ(CheckOutcomeName(CheckOutcome::kKeep), "keep");
  EXPECT_STREQ(CheckOutcomeName(CheckOutcome::kResync), "resync");
}

// --- snapshot exporters -----------------------------------------------------

TEST(ObsExportTest, MetricsJsonContainsAllSections) {
  ObsContext ctx;
  ctx.metrics.counter("scheduler.resyncs").Increment(3);
  ctx.metrics.gauge("sim.final_loss").Set(0.5);
  ctx.metrics.histogram("ps.pull_s").Record(1e-3);
  ctx.spans.AddSpan("compute", "compute", 0, T(0.0), T(1.0));
  CheckRecord check;
  check.outcome = CheckOutcome::kKeep;
  ctx.audit.RecordCheck(check);

  std::ostringstream os;
  WriteMetricsJson(ctx, os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"counters\""), std::string::npos);
  EXPECT_NE(out.find("\"scheduler.resyncs\":3"), std::string::npos);
  EXPECT_NE(out.find("\"gauges\""), std::string::npos);
  EXPECT_NE(out.find("\"histograms\""), std::string::npos);
  EXPECT_NE(out.find("\"p95_s\""), std::string::npos);
  EXPECT_NE(out.find("\"span_events\":1"), std::string::npos);
  EXPECT_NE(out.find("\"decision_audit\""), std::string::npos);
  EXPECT_NE(out.find("\"keep\""), std::string::npos);
}

TEST(SpanRecorderTest, FlowEventsExportAsChromeFlowPairs) {
  SpanRecorder spans;
  spans.SetProcessInfo(42, "bench_client");
  spans.SetWallEpochNanos(1234567890);
  spans.AddSpanWithFlow("pull.req", "net.client", 0, T(1.0), T(2.0),
                        /*flow_out=*/0xabc, /*flow_in=*/0);
  spans.AddSpanWithFlow("serve.pull", "net.server", 1, T(1.2), T(1.8),
                        /*flow_out=*/0, /*flow_in=*/0xabc);
  std::ostringstream os;
  spans.ExportChromeTrace(os);
  const std::string out = os.str();
  // Flow begin rides the producing span's start; flow end encloses the
  // consumer. Ids are hex strings (u64 does not fit JSON doubles).
  EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(out.find("\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(out.find("\"id\":\"0xabc\""), std::string::npos);
  // Process identity + clock epoch for the cross-process merge tool.
  EXPECT_NE(out.find("\"clock_epoch_ns\":1234567890"), std::string::npos);
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("bench_client"), std::string::npos);
  EXPECT_NE(out.find("\"pid\":42"), std::string::npos);
}

TEST(ObsExportTest, FileWritersRoundTrip) {
  ObsContext ctx;
  ctx.metrics.counter("c").Increment();
  ctx.spans.AddSpan("s", "c", 0, T(0.0), T(1.0));
  const std::string dir = ::testing::TempDir();
  EXPECT_TRUE(WriteMetricsJsonFile(ctx, dir + "/obs_test_metrics.json"));
  EXPECT_TRUE(WriteChromeTraceFile(ctx.spans, dir + "/obs_test_trace.json"));
  EXPECT_FALSE(WriteMetricsJsonFile(ctx, "/nonexistent-dir/metrics.json"));
}

}  // namespace
}  // namespace specsync::obs
