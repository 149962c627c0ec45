#include "sim/speed_model.h"

#include <utility>

#include "common/check.h"

namespace specsync {

SpeedModel::SpeedModel(Duration base, std::vector<double> multipliers,
                       double jitter_sigma)
    : base_(base),
      multipliers_(std::move(multipliers)),
      jitter_sigma_(jitter_sigma) {
  SPECSYNC_CHECK_GT(base.seconds(), 0.0);
  SPECSYNC_CHECK(!multipliers_.empty());
  for (double m : multipliers_) SPECSYNC_CHECK_GT(m, 0.0);
  SPECSYNC_CHECK_GE(jitter_sigma, 0.0);
}

SpeedModel SpeedModel::Homogeneous(Duration base, std::size_t num_workers,
                                   double jitter_sigma) {
  // base * 1.0 is base exactly: a homogeneous run draws like a classed one.
  return SpeedModel(base, std::vector<double>(num_workers, 1.0), jitter_sigma);
}

SpeedModel SpeedModel::EvenClasses(Duration base, std::size_t num_workers,
                                   const std::vector<double>& class_multipliers,
                                   double jitter_sigma) {
  SPECSYNC_CHECK(!class_multipliers.empty());
  std::vector<double> multipliers(num_workers);
  for (std::size_t w = 0; w < num_workers; ++w) {
    multipliers[w] = class_multipliers[w % class_multipliers.size()];
  }
  return SpeedModel(base, std::move(multipliers), jitter_sigma);
}

void SpeedModel::SetStragglers(double probability, double slowdown) {
  SPECSYNC_CHECK(probability >= 0.0 && probability <= 1.0);
  SPECSYNC_CHECK_GE(slowdown, 1.0);
  straggler_probability_ = probability;
  straggler_slowdown_ = slowdown;
}

void SpeedModel::SetContention(ContentionConfig config, Rng rng) {
  SPECSYNC_CHECK_GT(config.mean_gap.seconds(), 0.0);
  SPECSYNC_CHECK_GT(config.mean_duration.seconds(), 0.0);
  SPECSYNC_CHECK(config.cohort_fraction > 0.0 && config.cohort_fraction <= 1.0);
  SPECSYNC_CHECK_GE(config.slowdown, 1.0);
  contention_ = config;
  event_rng_ = std::move(rng);
}

Duration SpeedModel::ComputeTime(WorkerId worker, SimTime now, Rng& rng) {
  SPECSYNC_CHECK_LT(worker, multipliers_.size());
  Duration t = base_ * multipliers_[worker];
  if (jitter_sigma_ > 0.0) t = t * rng.LogNormal(0.0, jitter_sigma_);
  if (straggler_probability_ > 0.0 && rng.Bernoulli(straggler_probability_)) {
    t = t * straggler_slowdown_;
  }
  if (IsContended(worker, now)) t = t * contention_->slowdown;
  return t;
}

Duration SpeedModel::MeanComputeTime(WorkerId worker) const {
  SPECSYNC_CHECK_LT(worker, multipliers_.size());
  // The straggler factor is exactly 1.0 without stragglers.
  Duration mean = base_ * multipliers_[worker] *
                  (1.0 + straggler_probability_ * (straggler_slowdown_ - 1.0));
  if (contention_.has_value()) {
    // Stationary expectation over the contention process.
    const ContentionConfig& c = *contention_;
    const double busy_fraction =
        c.mean_duration.seconds() /
        (c.mean_duration.seconds() + c.mean_gap.seconds());
    const double hit = busy_fraction * c.cohort_fraction;
    mean = mean * (1.0 + hit * (c.slowdown - 1.0));
  }
  return mean;
}

void SpeedModel::GenerateEventsUpTo(SimTime now) {
  while (generated_until_ <= now) {
    const Duration gap = Duration::Seconds(
        event_rng_.Exponential(1.0 / contention_->mean_gap.seconds()));
    const Duration length = Duration::Seconds(
        event_rng_.Exponential(1.0 / contention_->mean_duration.seconds()));
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

bool SpeedModel::InCohort(WorkerId worker, const Event& event) const {
  // Deterministic membership hash: SplitMix-style mix of (worker, salt).
  std::uint64_t z = (static_cast<std::uint64_t>(worker) << 32) ^
                    event.cohort_salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  return u < contention_->cohort_fraction;
}

bool SpeedModel::IsContended(WorkerId worker, SimTime now) {
  if (!contention_.has_value()) return false;
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

}  // namespace specsync
