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
  return ApplySparseSlice(grad.indices(), grad.values(), grad.block_width(),
                          epoch, offset, params);
}

std::size_t SgdApplier::ApplySparseSlice(std::span<const std::uint64_t> indices,
                                         std::span<const double> values,
                                         std::size_t width, EpochId epoch,
                                         std::size_t offset,
                                         std::span<double> params) const {
  SPECSYNC_CHECK_EQ(indices.size(), values.size());
  SPECSYNC_CHECK_GT(width, 0u);
  SPECSYNC_CHECK_EQ(indices.size() % width, 0u);
  const double eta = schedule_->Rate(epoch);
  const double clip = config_.clip;
  const std::size_t end = offset + params.size();
  // One range check per row, then `step` on each of its entries; the step
  // is chosen once, outside the loop.
  const auto apply_rows = [&](auto step) {
    std::size_t applied = 0;
    for (std::size_t i = 0; i < indices.size(); i += width) {
      const auto first = static_cast<std::size_t>(indices[i]);
      if (first >= end || first + width <= offset) continue;
      SPECSYNC_CHECK(first >= offset && first + width <= end)
          << "a row of " << width << " at " << first
          << " crosses the slice's edge";
      double* row = params.data() + (first - offset);
      const double* value = values.data() + i;
      for (std::size_t k = 0; k < width; ++k) step(row[k], value[k]);
      applied += width;
    }
    return applied;
  };
  if (clip == 0.0) {
    // params[i] += (-eta) * g[i], matching Gradient::AddTo bit for bit.
    const double alpha = -eta;
    return apply_rows([alpha](double& p, double g) { p += alpha * g; });
  }
  return apply_rows([eta, clip](double& p, double g) {
    p -= eta * std::clamp(g, -clip, clip);
  });
}

}  // namespace specsync
