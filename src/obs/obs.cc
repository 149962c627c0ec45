#include "obs/obs.h"

#include <fstream>

#include "common/logging.h"
#include "obs/json.h"

namespace specsync::obs {

namespace {

using internal::JsonEscape;
using internal::JsonNumber;

void WriteHistogramJson(const LatencyHistogram& h, std::ostream& os) {
  os << "{\"count\":" << h.count()
     << ",\"sum_s\":" << JsonNumber(h.sum_seconds())
     << ",\"mean_s\":" << JsonNumber(h.mean_seconds())
     << ",\"max_s\":" << JsonNumber(h.max_seconds())
     << ",\"p50_s\":" << JsonNumber(h.ApproxQuantileSeconds(0.50))
     << ",\"p95_s\":" << JsonNumber(h.ApproxQuantileSeconds(0.95))
     << ",\"p99_s\":" << JsonNumber(h.ApproxQuantileSeconds(0.99))
     << ",\"buckets\":[";
  bool first = true;
  for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    const std::uint64_t count = h.bucket_count(b);
    if (count == 0) continue;
    if (!first) os << ",";
    first = false;
    os << "{\"le_s\":" << JsonNumber(LatencyHistogram::UpperBoundSeconds(b))
       << ",\"count\":" << count << "}";
  }
  os << "]}";
}

}  // namespace

void WriteMetricsJson(const ObsContext& obs, std::ostream& os) {
  os << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : obs.metrics.CounterValues()) {
    if (!first) os << ",";
    first = false;
    os << '"' << JsonEscape(name) << "\":" << value;
  }
  os << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : obs.metrics.GaugeValues()) {
    if (!first) os << ",";
    first = false;
    os << '"' << JsonEscape(name) << "\":" << JsonNumber(value);
  }
  os << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : obs.metrics.Histograms()) {
    if (!first) os << ",";
    first = false;
    os << '"' << JsonEscape(name) << "\":";
    WriteHistogramJson(*histogram, os);
  }
  os << "},\"span_events\":" << obs.spans.event_count()
     << ",\"decision_audit\":";
  obs.audit.ExportJson(os);
  os << "}\n";
}

bool WriteMetricsJsonFile(const ObsContext& obs, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    SPECSYNC_LOG(kWarning) << "obs: cannot open metrics path " << path;
    return false;
  }
  WriteMetricsJson(obs, out);
  return true;
}

bool WriteChromeTraceFile(const SpanRecorder& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    SPECSYNC_LOG(kWarning) << "obs: cannot open trace path " << path;
    return false;
  }
  spans.ExportChromeTrace(out);
  return true;
}

}  // namespace specsync::obs
