#include "optim/lr_schedule.h"

#include <algorithm>

namespace specsync {

StepDecaySchedule::StepDecaySchedule(double base_rate,
                                     std::vector<EpochId> boundaries,
                                     double factor)
    : base_rate_(base_rate),
      boundaries_(std::move(boundaries)),
      factor_(factor) {
  SPECSYNC_CHECK_GT(base_rate_, 0.0);
  SPECSYNC_CHECK_GT(factor_, 0.0);
  SPECSYNC_CHECK(std::is_sorted(boundaries_.begin(), boundaries_.end()))
      << "decay boundaries must be ascending";
}

double StepDecaySchedule::Rate(EpochId epoch) const {
  double rate = base_rate_;
  for (EpochId boundary : boundaries_) {
    if (epoch >= boundary) rate *= factor_;
  }
  return rate;
}

}  // namespace specsync
