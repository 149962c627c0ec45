#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace specsync {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

namespace {

double QuantileSorted(const std::vector<double>& sorted, double q) {
  SPECSYNC_CHECK(!sorted.empty()) << "quantile of empty sample";
  SPECSYNC_CHECK(q >= 0.0 && q <= 1.0) << "q=" << q;
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace

double Quantile(std::vector<double> sample, double q) {
  std::sort(sample.begin(), sample.end());
  return QuantileSorted(sample, q);
}

std::vector<double> Quantiles(std::vector<double> sample,
                              const std::vector<double>& qs) {
  std::sort(sample.begin(), sample.end());
  std::vector<double> out;
  out.reserve(qs.size());
  for (double q : qs) out.push_back(QuantileSorted(sample, q));
  return out;
}

BoxSummary BoxSummary::FromSample(std::vector<double> sample) {
  BoxSummary box;
  box.count = sample.size();
  if (sample.empty()) return box;
  auto qs = Quantiles(std::move(sample), {0.05, 0.25, 0.50, 0.75, 0.95});
  box.p5 = qs[0];
  box.p25 = qs[1];
  box.p50 = qs[2];
  box.p75 = qs[3];
  box.p95 = qs[4];
  return box;
}

std::ostream& operator<<(std::ostream& os, const BoxSummary& box) {
  return os << "{p5=" << box.p5 << " p25=" << box.p25 << " p50=" << box.p50
            << " p75=" << box.p75 << " p95=" << box.p95 << " n=" << box.count
            << "}";
}

}  // namespace specsync
