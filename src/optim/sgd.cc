#include "optim/sgd.h"

#include <algorithm>

#include "common/check.h"

namespace specsync {

SgdApplier::SgdApplier(std::shared_ptr<const LearningRateSchedule> schedule,
                       SgdConfig config)
    : schedule_(std::move(schedule)), config_(config) {
  SPECSYNC_CHECK(schedule_ != nullptr);
  SPECSYNC_CHECK_GE(config_.clip, 0.0);
}

void SgdApplier::Apply(const Gradient& grad, EpochId epoch,
                       std::span<double> params) const {
  if (grad.is_sparse()) {
    // Whole-vector apply: an index beyond the vector is a caller bug, not an
    // entry for some other slice (slices filter; the full vector must not).
    for (std::uint64_t index : grad.sparse().indices()) {
      SPECSYNC_CHECK_LT(index, params.size());
    }
    ApplySparseSlice(grad.sparse(), epoch, 0, params);
  } else {
    ApplyDenseSlice(grad.dense(), epoch, params);
  }
}

void SgdApplier::ApplyDenseSlice(std::span<const double> grad, EpochId epoch,
                                 std::span<double> params) const {
  SPECSYNC_CHECK_EQ(grad.size(), params.size());
  const double eta = schedule_->Rate(epoch);
  if (config_.clip == 0.0) {
    // params[i] += (-eta) * g[i], matching Gradient::AddTo bit for bit.
    const double alpha = -eta;
    for (std::size_t i = 0; i < grad.size(); ++i) {
      params[i] += alpha * grad[i];
    }
    return;
  }
  for (std::size_t i = 0; i < grad.size(); ++i) {
    params[i] -= eta * std::clamp(grad[i], -config_.clip, config_.clip);
  }
}

std::size_t SgdApplier::ApplySparseSlice(const SparseUpdate& grad,
                                         EpochId epoch, std::size_t offset,
                                         std::span<double> params) const {
  return ApplySparseSlice(grad.indices(), grad.values(), epoch, offset,
                          params);
}

std::size_t SgdApplier::ApplySparseSlice(std::span<const std::uint64_t> indices,
                                         std::span<const double> values,
                                         EpochId epoch, std::size_t offset,
                                         std::span<double> params) const {
  SPECSYNC_CHECK_EQ(indices.size(), values.size());
  const double eta = schedule_->Rate(epoch);
  const double alpha = -eta;
  const std::size_t end = offset + params.size();
  std::size_t applied = 0;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto index = static_cast<std::size_t>(indices[i]);
    if (index < offset || index >= end) continue;
    if (config_.clip == 0.0) {
      params[index - offset] += alpha * values[i];
    } else {
      params[index - offset] -=
          eta * std::clamp(values[i], -config_.clip, config_.clip);
    }
    ++applied;
  }
  return applied;
}

}  // namespace specsync
