#include "ps/param_store.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "obs/metrics.h"

namespace specsync {

namespace {

// scoped_lock that measures time-to-acquire and time-held into the shard's
// attached histograms. With both instruments detached it degenerates to a
// plain lock with no clock reads, so uninstrumented runs pay only the null
// checks.
class TimedShardLock {
 public:
  TimedShardLock(std::mutex& mutex, obs::LatencyHistogram* wait,
                 obs::LatencyHistogram* hold)
      : mutex_(mutex), hold_(hold) {
    if (wait == nullptr && hold == nullptr) {
      mutex_.lock();
      return;
    }
    const std::uint64_t begin_ns = obs::WallNanos();
    mutex_.lock();
    acquired_ns_ = obs::WallNanos();
    if (wait != nullptr) wait->Record(1e-9 * static_cast<double>(
                                                 acquired_ns_ - begin_ns));
  }

  ~TimedShardLock() {
    if (hold_ == nullptr) {
      mutex_.unlock();
      return;
    }
    const double held =
        1e-9 * static_cast<double>(obs::WallNanos() - acquired_ns_);
    mutex_.unlock();
    hold_->Record(held);
  }

  TimedShardLock(const TimedShardLock&) = delete;
  TimedShardLock& operator=(const TimedShardLock&) = delete;

 private:
  std::mutex& mutex_;
  obs::LatencyHistogram* hold_;
  std::uint64_t acquired_ns_ = 0;
};

}  // namespace

ParameterServer::ParameterServer(std::size_t dim, std::size_t num_shards,
                                 std::shared_ptr<const SgdApplier> applier)
    : layout_(ShardLayout::Even(dim, num_shards)),
      applier_(std::move(applier)),
      params_(dim, 0.0) {
  SPECSYNC_CHECK(applier_ != nullptr);
  shards_.reserve(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ParameterServer::AttachMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    pull_hist_ = push_hist_ = nullptr;
    for (auto& shard : shards_) shard->lock_wait = shard->lock_hold = nullptr;
    return;
  }
  pull_hist_ = &metrics->histogram("ps.pull_s");
  push_hist_ = &metrics->histogram("ps.push_s");
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string prefix = "ps.shard" + std::to_string(s);
    shards_[s]->lock_wait = &metrics->histogram(prefix + ".lock_wait_s");
    shards_[s]->lock_hold = &metrics->histogram(prefix + ".lock_hold_s");
  }
}

void ParameterServer::Initialize(const Model& model, Rng& rng) {
  SPECSYNC_CHECK_EQ(model.param_dim(), dim());
  // Whole-vector write: hold every shard lock (in shard order, the single
  // global lock order — Push and Pull acquire at most one at a time).
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  model.InitParams(params_, rng);
}

void ParameterServer::SetParams(DenseVector params) {
  SPECSYNC_CHECK_EQ(params.size(), dim());
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  params_ = std::move(params);
}

PullResult ParameterServer::Pull(ThreadPool* /*ignored*/) const {
  PullResult out;
  PullInto(&out);
  return out;
}

void ParameterServer::PullInto(PullResult* result) const {
  obs::ScopedTimer pull_timer(pull_hist_);
  PullResult& out = *result;
  // resize() keeps existing capacity, so a caller reusing one PullResult per
  // worker pays zero allocations per pull.
  out.params.resize(dim());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = *shards_[s];
    const auto offset = static_cast<std::ptrdiff_t>(layout_.offset(s));
    TimedShardLock lock(shard.mutex, shard.lock_wait, shard.lock_hold);
    std::copy_n(params_.begin() + offset, layout_.length(s),
                out.params.begin() + offset);
  }
  out.version = version_.load(std::memory_order_acquire);
}

ShardPullResult ParameterServer::PullShard(std::size_t s) const {
  SPECSYNC_CHECK_LT(s, shards_.size());
  const Shard& shard = *shards_[s];
  ShardPullResult out;
  out.offset = layout_.offset(s);
  out.params.resize(layout_.length(s));
  {
    TimedShardLock lock(shard.mutex, shard.lock_wait, shard.lock_hold);
    std::copy_n(params_.begin() + static_cast<std::ptrdiff_t>(out.offset),
                out.params.size(), out.params.begin());
    out.shard_version = shard.version;
  }
  out.version = version_.load(std::memory_order_acquire);
  return out;
}

std::uint64_t ParameterServer::PullShardSlice(std::size_t s,
                                              std::span<double> dest) const {
  SPECSYNC_CHECK_LT(s, shards_.size());
  const Shard& shard = *shards_[s];
  SPECSYNC_CHECK_EQ(dest.size(), layout_.length(s));
  TimedShardLock lock(shard.mutex, shard.lock_wait, shard.lock_hold);
  std::copy_n(params_.begin() + static_cast<std::ptrdiff_t>(layout_.offset(s)),
              dest.size(), dest.begin());
  return shard.version;
}

std::size_t ParameterServer::shard_bytes(std::size_t s) const {
  SPECSYNC_CHECK_LT(s, shards_.size());
  return layout_.length(s) * sizeof(double);
}

bool ParameterServer::PushRoute(const ShardRoute& route, const Gradient& grad,
                                EpochId epoch) {
  SPECSYNC_CHECK_LE(route.begin, route.end);
  const std::size_t count = route.end - route.begin;
  if (!grad.is_sparse()) {
    SPECSYNC_CHECK_LE(route.end, grad.dense().size());
    return PushShardDenseSlice(
        route.shard,
        std::span<const double>(grad.dense()).subspan(route.begin, count),
        epoch);
  }
  SPECSYNC_CHECK_LE(route.end, grad.sparse().nnz());
  return PushShardSparse(route.shard,
                         grad.sparse().indices().subspan(route.begin, count),
                         grad.sparse().values().subspan(route.begin, count),
                         epoch);
}

bool ParameterServer::PushShardSparse(std::size_t s,
                                      std::span<const std::uint64_t> indices,
                                      std::span<const double> values,
                                      EpochId epoch) {
  SPECSYNC_CHECK_LT(s, shards_.size());
  Shard& shard = *shards_[s];
  const std::size_t offset = layout_.offset(s);
  TimedShardLock lock(shard.mutex, shard.lock_wait, shard.lock_hold);
  const bool touched =
      applier_->ApplySparseSlice(
          indices, values, epoch, offset,
          std::span<double>(params_.data() + offset, layout_.length(s))) > 0;
  if (touched) ++shard.version;
  return touched;
}

bool ParameterServer::PushShardDenseSlice(std::size_t s,
                                          std::span<const double> slice,
                                          EpochId epoch) {
  SPECSYNC_CHECK_LT(s, shards_.size());
  Shard& shard = *shards_[s];
  SPECSYNC_CHECK_EQ(slice.size(), layout_.length(s));
  TimedShardLock lock(shard.mutex, shard.lock_wait, shard.lock_hold);
  applier_->ApplyDenseSlice(
      slice, epoch,
      std::span<double>(params_.data() + layout_.offset(s), slice.size()));
  const bool touched = !slice.empty();
  if (touched) ++shard.version;
  return touched;
}

std::uint64_t ParameterServer::CommitPush() {
  return version_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

std::uint64_t ParameterServer::Push(const Gradient& grad, EpochId epoch) {
  std::vector<ShardRoute> routes;
  layout_.RouteInto(grad, routes);
  return Push(grad, epoch, routes);
}

std::uint64_t ParameterServer::Push(const Gradient& grad, EpochId epoch,
                                    std::span<const ShardRoute> routes) {
  obs::ScopedTimer push_timer(push_hist_);
  for (const ShardRoute& route : routes) {
    PushRoute(route, grad, epoch);
  }
  return CommitPush();
}

ShardInfo ParameterServer::shard(std::size_t s) const {
  SPECSYNC_CHECK_LT(s, shards_.size());
  const Shard& shard = *shards_[s];
  std::scoped_lock lock(shard.mutex);
  return ShardInfo{layout_.offset(s), layout_.length(s), shard.version};
}

}  // namespace specsync
