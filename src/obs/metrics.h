// Live metrics: named counters, gauges, and log-scale latency histograms.
//
// The registry is the hot-path half of the observability layer (src/obs):
// every instrument is a lock-free atomic once resolved, so the scheduler,
// the sharded parameter store, and the runtime's worker threads can record
// without perturbing each other. Callers resolve instruments by name once
// (registry lookup takes a mutex) and keep the returned reference — the
// registry never invalidates it. Everything here measures *wall* time and
// stays strictly outside the simulation's virtual-time state, so metrics
// collection can never change a trace digest.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace specsync::obs {

// Monotone event count.
class Counter {
 public:
  void Increment(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log-scale latency histogram over seconds: bucket 0 holds everything up to
// 1us, then each bucket doubles the upper bound (1us, 2us, 4us, ... ~2.2e6s),
// so one fixed layout spans lock waits and whole-run walls alike. Record is
// wait-free; per-thread instances merge bucket-wise.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 52;
  static constexpr double kFirstUpperBoundSeconds = 1e-6;

  void Record(double seconds);
  void Merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum_seconds() const { return sum_.load(std::memory_order_relaxed); }
  double mean_seconds() const;
  double max_seconds() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t bucket) const;
  // Inclusive upper bound of a bucket; the last bucket is unbounded
  // (+infinity) so no observation is ever dropped.
  static double UpperBoundSeconds(std::size_t bucket);

  // Quantile estimated from the bucket counts (log-interpolated within the
  // bucket); exact enough for p50/p95/p99 summaries.
  //
  // Pinned degenerate behavior (exporters rely on every case being finite —
  // a JSON dump must never see NaN from here):
  //   - empty histogram                  -> 0.0 for every q;
  //   - all observations in bucket 0     -> min(max_seconds(),
  //     kFirstUpperBoundSeconds), i.e. never an interpolation against the
  //     bucket's zero-width log range;
  //   - quantile landing in the unbounded last bucket -> capped at
  //     max_seconds().
  double ApproxQuantileSeconds(double q) const;

 private:
  static std::size_t BucketFor(double seconds);

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// RAII wall-clock timer recording into a LatencyHistogram on destruction.
// A null histogram makes the timer a true no-op (no clock reads), so
// instrumented code paths cost nothing with observability off.
class ScopedTimer {
 public:
  explicit ScopedTimer(LatencyHistogram* histogram);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  LatencyHistogram* histogram_;
  std::uint64_t start_ns_ = 0;
};

// Wall clock for manual timing (same clock ScopedTimer uses).
std::uint64_t WallNanos();

// Thread-safe name -> instrument store. References returned by the accessors
// stay valid for the registry's lifetime; lookups take a mutex, recording
// does not.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LatencyHistogram& histogram(const std::string& name);

  // Name-sorted snapshots for exporters and tests.
  std::vector<std::pair<std::string, std::uint64_t>> CounterValues() const;
  std::vector<std::pair<std::string, double>> GaugeValues() const;
  std::vector<std::pair<std::string, const LatencyHistogram*>> Histograms()
      const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace specsync::obs
