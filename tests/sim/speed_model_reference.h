// The four speed-model classes the simulator chained as decorators before
// they folded into one SpeedModel (src/sim/speed_model.h), kept verbatim as
// the reference that speed_model_property_test drives the fold against. Only
// the namespace, the `inline` on each out-of-class definition and the shared
// ContentionConfig (taken from the one model's header) differ.
#pragma once

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/ids.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "sim/speed_model.h"

namespace specsync::reference {

class SpeedModel {
 public:
  virtual ~SpeedModel() = default;
  // Compute duration of one full iteration attempt for `worker`, starting at
  // simulated time `now` (time-varying models use it; stationary ones don't).
  virtual Duration ComputeTime(WorkerId worker, SimTime now, Rng& rng) = 0;
  // Stationary mean compute time for `worker` (no jitter, no events).
  virtual Duration MeanComputeTime(WorkerId worker) const = 0;
};

// All workers share one mean with log-normal jitter.
class HomogeneousSpeedModel final : public SpeedModel {
 public:
  HomogeneousSpeedModel(Duration base, double jitter_sigma);
  Duration ComputeTime(WorkerId worker, SimTime now, Rng& rng) override;
  Duration MeanComputeTime(WorkerId worker) const override {
    (void)worker;
    return base_;
  }

 private:
  Duration base_;
  double jitter_sigma_;
};

// Per-worker speed multipliers (e.g. 4 instance classes). multiplier > 1
// means slower.
class HeterogeneousSpeedModel final : public SpeedModel {
 public:
  HeterogeneousSpeedModel(Duration base, std::vector<double> multipliers,
                          double jitter_sigma);
  Duration ComputeTime(WorkerId worker, SimTime now, Rng& rng) override;
  Duration MeanComputeTime(WorkerId worker) const override;

  // Builds the paper's Cluster-2 shape: `num_workers` workers split evenly
  // across `class_multipliers` (round-robin).
  static std::unique_ptr<HeterogeneousSpeedModel> EvenClasses(
      Duration base, std::size_t num_workers,
      std::vector<double> class_multipliers, double jitter_sigma);

 private:
  Duration base_;
  std::vector<double> multipliers_;
  double jitter_sigma_;
};

// Wraps another model; with probability `probability` an iteration is slowed
// by `slowdown` (independent transient straggler).
class StragglerInjectingSpeedModel final : public SpeedModel {
 public:
  StragglerInjectingSpeedModel(std::unique_ptr<SpeedModel> inner,
                               double probability, double slowdown);
  Duration ComputeTime(WorkerId worker, SimTime now, Rng& rng) override;
  Duration MeanComputeTime(WorkerId worker) const override;

 private:
  std::unique_ptr<SpeedModel> inner_;
  double probability_;
  double slowdown_;
};

class ContentionSpeedModel final : public SpeedModel {
 public:
  ContentionSpeedModel(std::unique_ptr<SpeedModel> inner,
                       ContentionConfig config, Rng rng);
  Duration ComputeTime(WorkerId worker, SimTime now, Rng& rng) override;
  Duration MeanComputeTime(WorkerId worker) const override;

  // True if `worker` is slowed at `now` (generates events up to `now`).
  bool IsContended(WorkerId worker, SimTime now);

 private:
  struct Event {
    SimTime begin;
    SimTime end;
    std::uint64_t cohort_salt = 0;
  };
  void GenerateEventsUpTo(SimTime now);
  bool InCohort(WorkerId worker, const Event& event) const;

  std::unique_ptr<SpeedModel> inner_;
  ContentionConfig config_;
  Rng event_rng_;
  std::vector<Event> events_;  // time-ordered
  SimTime generated_until_ = SimTime::Zero();
};

// --- definitions (speed_model.cc) ---

inline HomogeneousSpeedModel::HomogeneousSpeedModel(Duration base,
                                                    double jitter_sigma)
    : base_(base), jitter_sigma_(jitter_sigma) {
  SPECSYNC_CHECK_GT(base.seconds(), 0.0);
  SPECSYNC_CHECK_GE(jitter_sigma, 0.0);
}

inline Duration HomogeneousSpeedModel::ComputeTime(WorkerId /*worker*/,
                                                   SimTime /*now*/, Rng& rng) {
  if (jitter_sigma_ == 0.0) return base_;
  return base_ * rng.LogNormal(0.0, jitter_sigma_);
}

inline HeterogeneousSpeedModel::HeterogeneousSpeedModel(
    Duration base, std::vector<double> multipliers, double jitter_sigma)
    : base_(base),
      multipliers_(std::move(multipliers)),
      jitter_sigma_(jitter_sigma) {
  SPECSYNC_CHECK_GT(base.seconds(), 0.0);
  SPECSYNC_CHECK(!multipliers_.empty());
  for (double m : multipliers_) SPECSYNC_CHECK_GT(m, 0.0);
  SPECSYNC_CHECK_GE(jitter_sigma, 0.0);
}

inline Duration HeterogeneousSpeedModel::ComputeTime(WorkerId worker,
                                                     SimTime /*now*/,
                                                     Rng& rng) {
  const Duration mean = MeanComputeTime(worker);
  if (jitter_sigma_ == 0.0) return mean;
  return mean * rng.LogNormal(0.0, jitter_sigma_);
}

inline Duration HeterogeneousSpeedModel::MeanComputeTime(
    WorkerId worker) const {
  SPECSYNC_CHECK_LT(worker, multipliers_.size());
  return base_ * multipliers_[worker];
}

inline std::unique_ptr<HeterogeneousSpeedModel>
HeterogeneousSpeedModel::EvenClasses(
    Duration base, std::size_t num_workers,
    std::vector<double> class_multipliers, double jitter_sigma) {
  SPECSYNC_CHECK(!class_multipliers.empty());
  std::vector<double> multipliers(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    multipliers[w] = class_multipliers[w % class_multipliers.size()];
  }
  return std::make_unique<HeterogeneousSpeedModel>(base, std::move(multipliers),
                                                   jitter_sigma);
}

inline StragglerInjectingSpeedModel::StragglerInjectingSpeedModel(
    std::unique_ptr<SpeedModel> inner, double probability, double slowdown)
    : inner_(std::move(inner)), probability_(probability), slowdown_(slowdown) {
  SPECSYNC_CHECK(inner_ != nullptr);
  SPECSYNC_CHECK(probability_ >= 0.0 && probability_ <= 1.0);
  SPECSYNC_CHECK_GE(slowdown_, 1.0);
}

inline Duration StragglerInjectingSpeedModel::ComputeTime(WorkerId worker,
                                                          SimTime now,
                                                          Rng& rng) {
  Duration t = inner_->ComputeTime(worker, now, rng);
  if (probability_ > 0.0 && rng.Bernoulli(probability_)) t = t * slowdown_;
  return t;
}

inline Duration StragglerInjectingSpeedModel::MeanComputeTime(
    WorkerId worker) const {
  // Expected value over the straggler coin flip.
  const Duration base = inner_->MeanComputeTime(worker);
  return base * (1.0 + probability_ * (slowdown_ - 1.0));
}

inline ContentionSpeedModel::ContentionSpeedModel(
    std::unique_ptr<SpeedModel> inner, ContentionConfig config, Rng rng)
    : inner_(std::move(inner)), config_(config), event_rng_(std::move(rng)) {
  SPECSYNC_CHECK(inner_ != nullptr);
  SPECSYNC_CHECK_GT(config_.mean_gap.seconds(), 0.0);
  SPECSYNC_CHECK_GT(config_.mean_duration.seconds(), 0.0);
  SPECSYNC_CHECK(config_.cohort_fraction > 0.0 &&
                 config_.cohort_fraction <= 1.0);
  SPECSYNC_CHECK_GE(config_.slowdown, 1.0);
}

inline void ContentionSpeedModel::GenerateEventsUpTo(SimTime now) {
  while (generated_until_ <= now) {
    const Duration gap = Duration::Seconds(
        event_rng_.Exponential(1.0 / config_.mean_gap.seconds()));
    const Duration length = Duration::Seconds(
        event_rng_.Exponential(1.0 / config_.mean_duration.seconds()));
    Event event;
    event.begin = generated_until_ + gap;
    event.end = event.begin + length;
    event.cohort_salt = event_rng_.UniformInt(0, 1u << 30);
    // Events never overlap (gap measured from the previous event's end),
    // matching the stationary busy fraction MeanComputeTime() assumes.
    generated_until_ = event.end;
    events_.push_back(event);
  }
}

inline bool ContentionSpeedModel::InCohort(WorkerId worker,
                                           const Event& event) const {
  // Deterministic membership hash: SplitMix-style mix of (worker, salt).
  std::uint64_t z = (static_cast<std::uint64_t>(worker) << 32) ^
                    event.cohort_salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  return u < config_.cohort_fraction;
}

inline bool ContentionSpeedModel::IsContended(WorkerId worker, SimTime now) {
  GenerateEventsUpTo(now);
  // Events are sparse (hundreds over a long run); a reverse scan is cheap and
  // exact even with the occasional very long exponential duration.
  for (auto it = events_.rbegin(); it != events_.rend(); ++it) {
    if (it->begin <= now && now < it->end && InCohort(worker, *it)) {
      return true;
    }
  }
  return false;
}

inline Duration ContentionSpeedModel::ComputeTime(WorkerId worker, SimTime now,
                                                  Rng& rng) {
  Duration t = inner_->ComputeTime(worker, now, rng);
  if (IsContended(worker, now)) t = t * config_.slowdown;
  return t;
}

inline Duration ContentionSpeedModel::MeanComputeTime(WorkerId worker) const {
  // Stationary expectation over the contention process.
  const double busy_fraction =
      config_.mean_duration.seconds() /
      (config_.mean_duration.seconds() + config_.mean_gap.seconds());
  const double hit = busy_fraction * config_.cohort_fraction;
  return inner_->MeanComputeTime(worker) *
         (1.0 + hit * (config_.slowdown - 1.0));
}

}  // namespace specsync::reference
