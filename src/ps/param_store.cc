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

std::vector<std::pair<std::size_t, std::size_t>> ParameterServer::ShardSplit(
    std::size_t dim, std::size_t num_shards) {
  SPECSYNC_CHECK_GT(dim, 0u);
  SPECSYNC_CHECK_GT(num_shards, 0u);
  SPECSYNC_CHECK_LE(num_shards, dim);
  const std::size_t base = dim / num_shards;
  const std::size_t extra = dim % num_shards;
  std::vector<std::pair<std::size_t, std::size_t>> split;
  split.reserve(num_shards);
  std::size_t offset = 0;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::size_t length = base + (s < extra ? 1 : 0);
    split.emplace_back(offset, length);
    offset += length;
  }
  SPECSYNC_CHECK_EQ(offset, dim);
  return split;
}

ParameterServer::ParameterServer(std::size_t dim, std::size_t num_shards,
                                 std::shared_ptr<const SgdApplier> applier)
    : dim_(dim), applier_(std::move(applier)), params_(dim, 0.0) {
  SPECSYNC_CHECK(applier_ != nullptr);
  shards_.reserve(num_shards);
  for (const auto& [offset, length] : ShardSplit(dim, num_shards)) {
    auto shard = std::make_unique<Shard>();
    shard->offset = offset;
    shard->length = length;
    shards_.push_back(std::move(shard));
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
  SPECSYNC_CHECK_EQ(model.param_dim(), dim_);
  // Whole-vector write: hold every shard lock (in shard order, the single
  // global lock order — Push and Pull acquire at most one at a time).
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mutex);
  model.InitParams(params_, rng);
}

void ParameterServer::SetParams(DenseVector params) {
  SPECSYNC_CHECK_EQ(params.size(), dim_);
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
  out.params.resize(dim_);
  for (const auto& shard : shards_) {
    TimedShardLock lock(shard->mutex, shard->lock_wait, shard->lock_hold);
    std::copy_n(params_.begin() + static_cast<std::ptrdiff_t>(shard->offset),
                shard->length,
                out.params.begin() + static_cast<std::ptrdiff_t>(shard->offset));
  }
  out.version = version_.load(std::memory_order_acquire);
}

ShardPullResult ParameterServer::PullShard(std::size_t s) const {
  SPECSYNC_CHECK_LT(s, shards_.size());
  const Shard& shard = *shards_[s];
  ShardPullResult out;
  out.offset = shard.offset;
  out.params.resize(shard.length);
  {
    TimedShardLock lock(shard.mutex, shard.lock_wait, shard.lock_hold);
    std::copy_n(params_.begin() + static_cast<std::ptrdiff_t>(shard.offset),
                shard.length, out.params.begin());
    out.shard_version = shard.version;
  }
  out.version = version_.load(std::memory_order_acquire);
  return out;
}

std::uint64_t ParameterServer::PullShardSlice(std::size_t s,
                                              std::span<double> dest) const {
  SPECSYNC_CHECK_LT(s, shards_.size());
  const Shard& shard = *shards_[s];
  SPECSYNC_CHECK_EQ(dest.size(), shard.length);
  TimedShardLock lock(shard.mutex, shard.lock_wait, shard.lock_hold);
  std::copy_n(params_.begin() + static_cast<std::ptrdiff_t>(shard.offset),
              shard.length, dest.begin());
  return shard.version;
}

std::size_t ParameterServer::ShardOf(std::size_t index) const {
  SPECSYNC_CHECK_LT(index, dim_);
  // Shards are near-equal; binary search over offsets.
  auto it = std::upper_bound(
      shards_.begin(), shards_.end(), index,
      [](std::size_t idx, const std::unique_ptr<Shard>& s) {
        return idx < s->offset;
      });
  return static_cast<std::size_t>(std::distance(shards_.begin(), it)) - 1;
}

std::size_t ParameterServer::shard_bytes(std::size_t s) const {
  SPECSYNC_CHECK_LT(s, shards_.size());
  return shards_[s]->length * sizeof(double);
}

std::vector<ParameterServer::ShardRoute> ParameterServer::RouteGradient(
    const Gradient& grad) const {
  std::vector<ShardRoute> routes;
  RouteGradientInto(grad, routes);
  return routes;
}

void ParameterServer::RouteGradientInto(
    const Gradient& grad, std::vector<ShardRoute>& routes) const {
  routes.clear();
  if (!grad.is_sparse()) {
    SPECSYNC_CHECK_EQ(grad.dense().size(), dim_);
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const Shard& shard = *shards_[s];
      routes.push_back(ShardRoute{s, shard_bytes(s), shard.offset,
                                  shard.offset + shard.length});
    }
    return;
  }
  // Tally bytes and the entry range per shard in place, then drop the
  // untouched shards. The cursor [lo, hi) is the current shard's range:
  // ShardOf's binary search runs only when an index leaves it, so sorted
  // input routes in O(nnz).
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    routes.push_back(ShardRoute{s, 0});
  }
  std::size_t shard = 0;
  std::size_t lo = 0;
  std::size_t hi = 0;
  const auto indices = grad.sparse().indices();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto index = static_cast<std::size_t>(indices[i]);
    if (index < lo || index >= hi) {
      shard = ShardOf(index);
      lo = shards_[shard]->offset;
      hi = lo + shards_[shard]->length;
    }
    ShardRoute& route = routes[shard];
    if (route.bytes == 0) route.begin = i;
    route.end = i + 1;
    route.bytes += 16;
  }
  std::erase_if(routes, [](const ShardRoute& r) { return r.bytes == 0; });
  // An empty gradient still crosses the wire as one (empty) message, so the
  // push protocol and version accounting see exactly one logical push.
  if (routes.empty()) routes.push_back(ShardRoute{0, 0});
}

bool ParameterServer::PushShard(std::size_t s, const Gradient& grad,
                                EpochId epoch) {
  if (grad.is_sparse()) {
    return PushShardSparse(s, grad.sparse().indices(), grad.sparse().values(),
                           epoch);
  }
  SPECSYNC_CHECK_LT(s, shards_.size());
  SPECSYNC_CHECK_EQ(grad.dense().size(), dim_);
  const Shard& shard = *shards_[s];
  return PushShardDenseSlice(
      s,
      std::span<const double>(grad.dense().data() + shard.offset,
                              shard.length),
      epoch);
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
  TimedShardLock lock(shard.mutex, shard.lock_wait, shard.lock_hold);
  const bool touched =
      applier_->ApplySparseSlice(
          indices, values, epoch, shard.offset,
          std::span<double>(params_.data() + shard.offset, shard.length)) > 0;
  if (touched) ++shard.version;
  return touched;
}

bool ParameterServer::PushShardDenseSlice(std::size_t s,
                                          std::span<const double> slice,
                                          EpochId epoch) {
  SPECSYNC_CHECK_LT(s, shards_.size());
  Shard& shard = *shards_[s];
  SPECSYNC_CHECK_EQ(slice.size(), shard.length);
  TimedShardLock lock(shard.mutex, shard.lock_wait, shard.lock_hold);
  applier_->ApplyDenseSlice(
      slice, epoch, std::span<double>(params_.data() + shard.offset,
                                      shard.length));
  const bool touched = shard.length > 0;
  if (touched) ++shard.version;
  return touched;
}

std::uint64_t ParameterServer::CommitPush() {
  return version_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

std::uint64_t ParameterServer::Push(const Gradient& grad, EpochId epoch) {
  return Push(grad, epoch, RouteGradient(grad));
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
  return ShardInfo{shard.offset, shard.length, shard.version};
}

}  // namespace specsync
