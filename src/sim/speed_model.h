// Worker compute-speed model.
//
// Per-iteration compute time =
//   base * multiplier[worker] * jitter * straggler slowdown * contention
// which reproduces the paper's testbeds:
//  - homogeneous (Cluster 1: 40x m4.xlarge): every multiplier 1.0,
//  - heterogeneous instance classes (Cluster 2: 10x m3.xlarge, 10x m3.2xlarge,
//    10x m4.xlarge, 10x m4.2xlarge): one multiplier per class,
//  - transient stragglers (background load / multi-tenancy effects),
//  - correlated contention events slowing a cohort of workers at once.
#pragma once

#include <optional>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"

namespace specsync {

// Fraction of workers each contention event hits, and the slowdown of an
// iteration started during one.
inline constexpr double kContentionCohortFraction = 0.3;
inline constexpr double kContentionSlowdown = 2.5;

// Correlated contention events: multi-tenant clouds periodically slow a
// cohort of nodes at once (noisy neighbors, network congestion, host
// maintenance). When an event ends, the cohort's delayed pushes land together
// — exactly the bursty, overdispersed push-after-pull arrivals the paper's
// Fig. 3 traces show (whiskers spanning 0..2x the Poisson mean). This
// burstiness is the regime where speculative re-synchronization pays off:
// with purely independent arrivals the mean version-staleness of a
// full-duty-cycle cluster is conserved at m-1 regardless of scheme.
struct ContentionConfig {
  // Mean gap between contention events (exponential inter-arrivals).
  Duration mean_gap = Duration::Seconds(40.0);
  // Event duration (exponential with this mean).
  Duration mean_duration = Duration::Seconds(20.0);
  double cohort_fraction = kContentionCohortFraction;
  double slowdown = kContentionSlowdown;
};

class SpeedModel {
 public:
  // Worker w computes at `base * multipliers[w]` (multiplier > 1 means
  // slower) with log-normal jitter of sigma `jitter_sigma` (0 = none). The
  // model serves exactly `multipliers.size()` workers.
  SpeedModel(Duration base, std::vector<double> multipliers,
             double jitter_sigma);
  // `num_workers` workers sharing one mean.
  static SpeedModel Homogeneous(Duration base, std::size_t num_workers,
                                double jitter_sigma);
  // The paper's Cluster-2 shape: `num_workers` workers split evenly across
  // `class_multipliers` (round-robin).
  static SpeedModel EvenClasses(Duration base, std::size_t num_workers,
                                const std::vector<double>& class_multipliers,
                                double jitter_sigma);

  // With probability `probability` an iteration runs `slowdown` times slower
  // (independent transient straggler).
  void SetStragglers(double probability, double slowdown);
  // Correlated contention, its events drawn from their own stream `rng`.
  void SetContention(ContentionConfig config, Rng rng);

  // Compute duration of one full iteration attempt for `worker`, starting at
  // simulated time `now`. Draws from `rng`, the worker's stream, the jitter
  // (sigma > 0) and then the straggler coin (probability > 0); contention
  // events come from the model's own stream.
  Duration ComputeTime(WorkerId worker, SimTime now, Rng& rng);
  // Stationary mean compute time for `worker`: no jitter, the expectation
  // over the straggler coin and over the contention process.
  Duration MeanComputeTime(WorkerId worker) const;

  // True if `worker` is slowed by contention at `now` (generates events up
  // to `now`); always false without contention.
  bool IsContended(WorkerId worker, SimTime now);

  std::size_t num_workers() const { return multipliers_.size(); }

 private:
  struct Event {
    SimTime begin;
    SimTime end;
    std::uint64_t cohort_salt = 0;
  };
  void GenerateEventsUpTo(SimTime now);
  bool InCohort(WorkerId worker, const Event& event) const;

  Duration base_;
  std::vector<double> multipliers_;
  double jitter_sigma_;
  double straggler_probability_ = 0.0;
  double straggler_slowdown_ = 1.0;
  std::optional<ContentionConfig> contention_;
  Rng event_rng_{0};
  std::vector<Event> events_;  // time-ordered
  SimTime generated_until_ = SimTime::Zero();
};

}  // namespace specsync
