// Edge-case coverage for the trace analyses: empty traces, a single worker
// (PAP counts only *other* workers' pushes), and a run where every iteration
// aborts. The ledger totals and AnalyzePap must degrade gracefully — zeros,
// not crashes — because short or pathological sims produce exactly these
// shapes.
#include <gtest/gtest.h>

#include "trace/pap_analysis.h"
#include "trace/trace.h"

namespace specsync {
namespace {

TEST(TraceEdgeCasesTest, EmptyTraceAnalyzesToZeros) {
  const TrainingTrace trace(4);  // four workers, no events recorded
  const PapResult pap = AnalyzePap(trace, PapConfig{});
  ASSERT_EQ(pap.per_interval.size(), PapConfig{}.num_intervals);
  ASSERT_EQ(pap.mean_per_interval.size(), PapConfig{}.num_intervals);
  for (std::size_t k = 0; k < pap.per_interval.size(); ++k) {
    EXPECT_EQ(pap.per_interval[k].p50, 0.0) << "interval " << k;
    EXPECT_EQ(pap.mean_per_interval[k], 0.0) << "interval " << k;
  }
  EXPECT_EQ(pap.median_first_two, 0.0);
  EXPECT_EQ(trace.total_pushes(), 0u);
  EXPECT_EQ(trace.total_aborts(), 0u);
  EXPECT_EQ(trace.total_wasted_compute().seconds(), 0.0);
}

TEST(TraceEdgeCasesTest, EmptyTracesDigestEqualOnlyWithSameShape) {
  EXPECT_EQ(TraceDigest(TrainingTrace(4)), TraceDigest(TrainingTrace(4)));
  // Worker count is part of the recorded history.
  EXPECT_NE(TraceDigest(TrainingTrace(4)), TraceDigest(TrainingTrace(5)));
}

TEST(TraceEdgeCasesTest, SingleWorkerHasNoPushesAfterPull) {
  // One worker pulling and pushing on a steady cadence: PAP counts pushes
  // from *other* workers after each pull, so every interval must stay zero.
  TrainingTrace trace(1);
  for (int i = 0; i < 10; ++i) {
    const double t = static_cast<double>(i);
    trace.RecordPull(0, SimTime::FromSeconds(t), /*version=*/i);
    trace.RecordPush(0, SimTime::FromSeconds(t + 0.5), /*iteration=*/i,
                     /*version=*/i + 1, /*missed_updates=*/0);
  }
  const PapResult pap = AnalyzePap(trace, PapConfig{});
  for (std::size_t k = 0; k < pap.per_interval.size(); ++k) {
    EXPECT_EQ(pap.mean_per_interval[k], 0.0) << "interval " << k;
    EXPECT_EQ(pap.per_interval[k].p50, 0.0) << "interval " << k;
  }
  EXPECT_EQ(pap.median_first_two, 0.0);
}

TEST(TraceEdgeCasesTest, AllAbortsTraceAccountsWaste) {
  // Pathological run: every speculation window fires, no push ever lands.
  TrainingTrace trace(3);
  double total_waste = 0.0;
  for (int i = 0; i < 6; ++i) {
    const WorkerId w = static_cast<WorkerId>(i % 3);
    const double t = 0.7 * static_cast<double>(i + 1);
    trace.RecordPull(w, SimTime::FromSeconds(t), /*version=*/0);
    const double waste = 0.25 + 0.05 * static_cast<double>(i);
    trace.RecordAbort(w, SimTime::FromSeconds(t + 0.4),
                      Duration::Seconds(waste));
    total_waste += waste;
  }
  EXPECT_EQ(trace.total_pushes(), 0u);
  EXPECT_EQ(trace.total_aborts(), 6u);
  EXPECT_DOUBLE_EQ(trace.total_wasted_compute().seconds(), total_waste);

  // PAP sees pulls but zero pushes: defined, all-zero result.
  const PapResult pap = AnalyzePap(trace, PapConfig{});
  EXPECT_EQ(pap.median_first_two, 0.0);

  // One record per pull and per abort; no loss samples (no evals ran).
  EXPECT_EQ(trace.pulls().size(), 6u);
  EXPECT_EQ(trace.aborts().size(), 6u);
  EXPECT_TRUE(trace.losses().empty());
}

}  // namespace
}  // namespace specsync
