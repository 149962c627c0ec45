// SGD update application.
//
// The parameter server applies pushed gradients with w <- w - eta * g
// (paper Eq. (2)). The applier lives server-side: workers push raw gradients
// and the server scales by the epoch's learning rate, exactly as MXNet's
// KVStore updater does. Optional gradient clipping guards the non-convex
// workloads against rare blow-ups under extreme staleness.
#pragma once

#include <memory>
#include <span>

#include "models/model.h"
#include "optim/lr_schedule.h"

namespace specsync {

struct SgdConfig {
  // Elementwise clip bound applied to the gradient before the update;
  // 0 disables clipping.
  double clip = 0.0;
};

class SgdApplier {
 public:
  SgdApplier(std::shared_ptr<const LearningRateSchedule> schedule,
             SgdConfig config = {});

  // params -= Rate(epoch) * grad.
  void Apply(const Gradient& grad, EpochId epoch,
             std::span<double> params) const;

  // Slice primitives for the sharded parameter store: each shard applies only
  // its own contiguous slice of a full-dimension gradient.

  // params -= Rate(epoch) * grad (elementwise over one dense slice).
  void ApplyDenseSlice(std::span<const double> grad, EpochId epoch,
                       std::span<double> params) const;

  // Applies the entries of `grad` whose indices fall in
  // [offset, offset + params.size()) onto the slice (params[i] holds full
  // index offset + i), row by row at grad.block_width(). Returns the number
  // of entries applied.
  std::size_t ApplySparseSlice(const SparseUpdate& grad, EpochId epoch,
                               std::size_t offset,
                               std::span<double> params) const;

  // The same over entry arrays cut into rows of `width` entries (the wire
  // path applies a decoded slice in place at width 1): values[i] belongs to
  // indices[i], the two spans are equally long, and each row holds `width`
  // consecutive indices (SparseUpdate::block_width()'s contract). A row is
  // range-checked once and applied whole or skipped whole; one that crosses
  // the slice's edge is a CheckError. Each element sees the same operation
  // at every width.
  std::size_t ApplySparseSlice(std::span<const std::uint64_t> indices,
                               std::span<const double> values,
                               std::size_t width, EpochId epoch,
                               std::size_t offset,
                               std::span<double> params) const;

  double Rate(EpochId epoch) const { return schedule_->Rate(epoch); }

 private:
  std::shared_ptr<const LearningRateSchedule> schedule_;
  SgdConfig config_;
};

}  // namespace specsync
