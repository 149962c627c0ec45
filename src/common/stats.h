// Descriptive statistics used by the trace analyses and the benchmark
// harness: running moments, quantiles, and the five-number box-plot summary
// the paper uses in Fig. 3.
#pragma once

#include <cstddef>
#include <ostream>
#include <vector>

namespace specsync {

// Online mean / variance (Welford). Cheap to copy.
class RunningStats {
 public:
  void Add(double x);
  void Merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Linear-interpolation quantile of a sample (q in [0,1]).
// The sample is copied and sorted; use Quantiles() for several at once.
double Quantile(std::vector<double> sample, double q);
std::vector<double> Quantiles(std::vector<double> sample,
                              const std::vector<double>& qs);

// Five-number summary matching the paper's box plots:
// whiskers at p5/p95, box at p25/p50/p75.
struct BoxSummary {
  double p5 = 0.0;
  double p25 = 0.0;
  double p50 = 0.0;
  double p75 = 0.0;
  double p95 = 0.0;
  std::size_t count = 0;

  static BoxSummary FromSample(std::vector<double> sample);
};

std::ostream& operator<<(std::ostream& os, const BoxSummary& box);

}  // namespace specsync
