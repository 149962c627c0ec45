#include "ps/consistency.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/audit_log.h"

namespace specsync {

// --- PerShardSspController ---------------------------------------------------

PerShardSspController::PerShardSspController(std::size_t num_workers,
                                             std::size_t num_shards,
                                             std::uint64_t staleness)
    : num_workers_(num_workers),
      staleness_(staleness),
      num_shards_(num_shards),
      completed_(num_workers, 0),
      clock_(num_workers, std::vector<std::uint64_t>(num_shards, 0)),
      writes_(num_workers, std::vector<char>(num_shards, 0)),
      write_set_frozen_(num_workers, 0),
      live_(num_workers, 1) {
  SPECSYNC_CHECK_GT(num_workers, 0u);
  SPECSYNC_CHECK_GT(num_shards, 0u);
}

void PerShardSspController::SetWriteSet(
    WorkerId worker, const std::vector<std::size_t>& shards) {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  write_set_frozen_[worker] = 1;
  std::fill(writes_[worker].begin(), writes_[worker].end(), char{0});
  for (std::size_t s : shards) {
    SPECSYNC_CHECK_LT(s, num_shards_);
    writes_[worker][s] = 1;
    clock_[worker][s] = completed_[worker];
  }
}

std::optional<std::uint64_t> PerShardSspController::MinShardClock(
    std::size_t shard) const {
  SPECSYNC_CHECK_LT(shard, num_shards_);
  std::optional<std::uint64_t> min_clock;
  for (WorkerId w = 0; w < num_workers_; ++w) {
    if (!live_[w] || !writes_[w][shard]) continue;
    const std::uint64_t c = clock_[w][shard];
    min_clock = min_clock.has_value() ? std::min(*min_clock, c) : c;
  }
  return min_clock;
}

bool PerShardSspController::MayStart(WorkerId worker,
                                     IterationId next_iteration) const {
  return !FirstBlockingShard(worker, next_iteration).has_value();
}

std::optional<std::size_t> PerShardSspController::FirstBlockingShard(
    WorkerId worker, IterationId next_iteration) const {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    if (!writes_[worker][s]) continue;
    const std::optional<std::uint64_t> min_clock = MinShardClock(s);
    if (!min_clock.has_value()) continue;  // no live writer gates nobody
    if (next_iteration > *min_clock + staleness_) return s;
  }
  return std::nullopt;
}

void PerShardSspController::OnPush(
    WorkerId worker, IterationId iteration, SimTime /*now*/,
    std::span<const std::size_t> touched_shards) {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  SPECSYNC_CHECK_EQ(completed_[worker], iteration)
      << "worker " << worker << " pushed iteration " << iteration
      << " but has completed " << completed_[worker];
  if (!write_set_frozen_[worker]) {
    if (touched_shards.empty()) {
      // No routing information: the push is assumed dense (touches all).
      std::fill(writes_[worker].begin(), writes_[worker].end(), char{1});
    } else {
      for (std::size_t s : touched_shards) {
        SPECSYNC_CHECK_LT(s, num_shards_);
        writes_[worker][s] = 1;
      }
    }
  }
  completed_[worker] = iteration + 1;
  // A finished iteration is finished on every shard the worker owns-writes;
  // see the header note on why partial advancement breaks liveness.
  for (std::size_t s = 0; s < num_shards_; ++s) {
    if (writes_[worker][s]) clock_[worker][s] = completed_[worker];
  }
}

void PerShardSspController::OnWorkerDown(WorkerId worker) {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  live_[worker] = 0;
}

void PerShardSspController::OnWorkerUp(WorkerId worker) {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  live_[worker] = 1;
}

std::uint64_t PerShardSspController::completed(WorkerId worker) const {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  return completed_[worker];
}

std::uint64_t PerShardSspController::clock(WorkerId worker,
                                           std::size_t shard) const {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  SPECSYNC_CHECK_LT(shard, num_shards_);
  return clock_[worker][shard];
}

bool PerShardSspController::writes(WorkerId worker, std::size_t shard) const {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  SPECSYNC_CHECK_LT(shard, num_shards_);
  return writes_[worker][shard] != 0;
}

bool PerShardSspController::live(WorkerId worker) const {
  SPECSYNC_CHECK_LT(worker, num_workers_);
  return live_[worker] != 0;
}

// --- DynamicSspController ----------------------------------------------------

DynamicSspController::DynamicSspController(std::size_t num_workers,
                                           std::size_t num_shards,
                                           DynamicSspConfig config)
    : PerShardSspController(num_workers, num_shards,
                            config.initial_staleness),
      config_(config),
      last_push_(num_workers),
      interval_sum_(num_workers, Duration::Zero()),
      interval_count_(num_workers, 0) {
  SPECSYNC_CHECK_LE(config_.min_staleness, config_.max_staleness);
  SPECSYNC_CHECK_GE(config_.initial_staleness, config_.min_staleness);
  SPECSYNC_CHECK_LE(config_.initial_staleness, config_.max_staleness);
  SPECSYNC_CHECK_GT(config_.ewma, 0.0);
  SPECSYNC_CHECK_LE(config_.ewma, 1.0);
  SPECSYNC_CHECK_GT(config_.headroom, 0.0);
}

void DynamicSspController::OnPush(WorkerId worker, IterationId iteration,
                                  SimTime now,
                                  std::span<const std::size_t> touched) {
  if (last_push_[worker].has_value()) {
    interval_sum_[worker] += now - *last_push_[worker];
    ++interval_count_[worker];
  }
  last_push_[worker] = now;
  ++window_pushes_;
  PerShardSspController::OnPush(worker, iteration, now, touched);
  MaybeRetune(now);
}

void DynamicSspController::MaybeRetune(SimTime now) {
  // One evaluation per epoch: the slowest live worker must have advanced a
  // full iteration since the last retune check.
  std::optional<std::uint64_t> min_live;
  for (WorkerId w = 0; w < num_workers(); ++w) {
    if (!live(w)) continue;
    const std::uint64_t c = completed(w);
    min_live = min_live.has_value() ? std::min(*min_live, c) : c;
  }
  if (!min_live.has_value() || *min_live < last_retune_progress_ + 1) return;
  last_retune_progress_ = *min_live;

  // Mean push inter-arrival per live worker with at least one interval.
  double fastest = 0.0, slowest = 0.0;
  std::size_t measured = 0;
  for (WorkerId w = 0; w < num_workers(); ++w) {
    if (!live(w) || interval_count_[w] == 0) continue;
    const double mean = interval_sum_[w].seconds() /
                        static_cast<double>(interval_count_[w]);
    if (mean <= 0.0) continue;
    if (measured == 0 || mean < fastest) fastest = mean;
    if (measured == 0 || mean > slowest) slowest = mean;
    ++measured;
  }
  const std::uint64_t epoch_pushes = window_pushes_;
  window_pushes_ = 0;
  for (WorkerId w = 0; w < num_workers(); ++w) {
    interval_sum_[w] = Duration::Zero();
    interval_count_[w] = 0;
  }
  if (measured < 2 || fastest <= 0.0) return;

  const double ratio = slowest / fastest;
  smoothed_ratio_ = smoothed_ratio_ == 0.0
                        ? ratio
                        : config_.ewma * ratio +
                              (1.0 - config_.ewma) * smoothed_ratio_;

  const double raw = config_.headroom * (smoothed_ratio_ - 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::max(0.0, std::ceil(raw - 1e-9)));
  const std::uint64_t bound =
      std::clamp(target, config_.min_staleness, config_.max_staleness);
  if (bound == staleness()) return;

  SetStalenessBound(bound);
  ++retunes_;
  if (audit_ != nullptr) {
    obs::RetuneRecord record;
    record.kind = obs::RetuneKind::kStaleness;
    record.epoch = *min_live;
    record.at = now;
    record.staleness = bound;
    record.straggler_ratio = smoothed_ratio_;
    record.epoch_pushes = epoch_pushes;
    audit_->RecordRetune(record);
  }
}

// --- factory -----------------------------------------------------------------

std::unique_ptr<PerShardSspController> MakeConsistencyController(
    const ConsistencySpec& spec, std::size_t num_workers,
    std::size_t num_shards) {
  switch (spec.scheme) {
    case ConsistencyScheme::kAsp:
      return nullptr;
    case ConsistencyScheme::kBsp:
    case ConsistencyScheme::kSsp: {
      // Global bounds: freeze every write set to all shards, which makes the
      // per-shard controller exactly SSP over the live workers.
      const std::uint64_t bound =
          spec.scheme == ConsistencyScheme::kBsp ? 0 : spec.staleness;
      auto controller = std::make_unique<PerShardSspController>(
          num_workers, num_shards, bound);
      std::vector<std::size_t> all(num_shards);
      for (std::size_t s = 0; s < num_shards; ++s) all[s] = s;
      for (WorkerId w = 0; w < num_workers; ++w) {
        controller->SetWriteSet(w, all);
      }
      return controller;
    }
    case ConsistencyScheme::kPssp:
      return std::make_unique<PerShardSspController>(num_workers, num_shards,
                                                     spec.staleness);
    case ConsistencyScheme::kDssp:
      return std::make_unique<DynamicSspController>(num_workers, num_shards,
                                                    spec.dssp);
  }
  SPECSYNC_CHECK(false) << "unknown consistency scheme";
  return nullptr;
}

}  // namespace specsync
