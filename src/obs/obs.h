// Observability session: one bundle of instruments attached to one run.
//
// An ObsContext groups the three capture surfaces — live metrics, the span
// timeline, and the scheduler decision audit — so an engine config carries a
// single optional pointer. Null means observability off: every
// instrumentation site degrades to a branch on a null pointer, and the
// engines' golden trace digests are bit-identical with a context attached or
// not (instrumentation reads the clocks, never the other way around).
//
// Exporters write one snapshot per run: metrics.json (counters, gauges,
// histogram summaries, and the decision audit) and the Chrome trace via
// SpanRecorder::ExportChromeTrace.
#pragma once

#include <ostream>
#include <string>

#include "obs/audit_log.h"
#include "obs/metrics.h"
#include "obs/span_recorder.h"

namespace specsync::obs {

struct ObsContext {
  MetricsRegistry metrics;
  SpanRecorder spans;
  DecisionAuditLog audit;
};

// Full JSON snapshot:
// {"counters":{..},"gauges":{..},"histograms":{name:{count,sum_s,mean_s,
//  max_s,p50_s,p95_s,p99_s,buckets:[{le_s,count}...]}},"decision_audit":{..}}
// Histogram buckets with zero count are elided to keep files small.
void WriteMetricsJson(const ObsContext& obs, std::ostream& os);

// Convenience file writers; return false (and log a warning) when the path
// cannot be opened.
bool WriteMetricsJsonFile(const ObsContext& obs, const std::string& path);
bool WriteChromeTraceFile(const SpanRecorder& spans, const std::string& path);

}  // namespace specsync::obs
