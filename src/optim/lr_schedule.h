// Learning-rate schedules.
//
// The paper's CIFAR-10 workload decays the rate from 0.05 at epochs 200 and
// 250 (Sec. VI-A); StepDecaySchedule reproduces that shape. Schedules are
// queried by epoch so all workers apply the same rate within an epoch.
#pragma once

#include <memory>
#include <vector>

#include "common/check.h"
#include "common/ids.h"

namespace specsync {

class LearningRateSchedule {
 public:
  virtual ~LearningRateSchedule() = default;
  virtual double Rate(EpochId epoch) const = 0;
};

class ConstantSchedule final : public LearningRateSchedule {
 public:
  explicit ConstantSchedule(double rate) : rate_(rate) {
    SPECSYNC_CHECK_GT(rate, 0.0);
  }
  double Rate(EpochId /*epoch*/) const override { return rate_; }

 private:
  double rate_;
};

// Multiplies the base rate by `factor` at each boundary epoch.
class StepDecaySchedule final : public LearningRateSchedule {
 public:
  StepDecaySchedule(double base_rate, std::vector<EpochId> boundaries,
                    double factor);
  double Rate(EpochId epoch) const override;

 private:
  double base_rate_;
  std::vector<EpochId> boundaries_;
  double factor_;
};

}  // namespace specsync
