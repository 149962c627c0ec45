// Sharded, versioned parameter store — the server side of the PS architecture
// (paper Fig. 1).
//
// The canonical model parameters live here as one flat vector partitioned
// into contiguous shards, each shard standing for one server process with its
// *own* mutex and version counter. Workers Pull() composed snapshots (or
// PullShard() individual shards) and Push() gradients; the store applies
// pushes through an SgdApplier exactly like MXNet's KVStore server-side
// updater. Sparse pushes route only to the shards that own their indices;
// dense pushes update every shard. A monotone global counter tracks logical
// pushes — the freshness bookkeeping that SpecSync reasons about.
//
// Consistency: each shard is internally consistent (its mutex covers both the
// slice and its version), but a composed Pull() locks shards one at a time,
// so under concurrent pushes the cross-shard snapshot may be torn — shard j
// may reflect a push that shard i's slice predates. This mirrors a real
// multi-server PS, where workers assemble their view from independent server
// responses; the staleness machinery already tolerates (and measures) it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "models/model.h"
#include "optim/sgd.h"

namespace specsync {

class ThreadPool;

namespace obs {
class LatencyHistogram;
class MetricsRegistry;
}  // namespace obs

struct PullResult {
  DenseVector params;
  // Number of pushes committed before this snapshot was taken. (In the
  // threaded runtime a push committing concurrently with the pull may or may
  // not be counted — the version is sampled once, after the shard copies.)
  std::uint64_t version = 0;
};

struct ShardInfo {
  std::size_t offset = 0;
  std::size_t length = 0;
  std::uint64_t version = 0;  // pushes that touched this shard
};

// One shard's snapshot: the slice [offset, offset + params.size()) of the
// full parameter vector.
struct ShardPullResult {
  std::size_t offset = 0;
  DenseVector params;
  std::uint64_t shard_version = 0;  // pushes that touched this shard
  std::uint64_t version = 0;        // global logical-push counter
};

class ParameterServer {
 public:
  // Splits `dim` parameters into `num_shards` near-equal contiguous shards.
  ParameterServer(std::size_t dim, std::size_t num_shards,
                  std::shared_ptr<const SgdApplier> applier);

  // The canonical contiguous near-equal split: element s is shard s's
  // (offset, length). The constructor, the wire transport's endpoint tables
  // (src/net), and multi-process harnesses all share this one definition of
  // the layout, so they can agree on shard boundaries without a handshake.
  static std::vector<std::pair<std::size_t, std::size_t>> ShardSplit(
      std::size_t dim, std::size_t num_shards);

  // Attaches latency instrumentation (src/obs): whole-operation histograms
  // "ps.pull_s" / "ps.push_s" and per-shard lock contention
  // "ps.shard<k>.lock_wait_s" / "ps.shard<k>.lock_hold_s". Resolve-once: the
  // hot paths pay a null check when detached and two clock reads per timed
  // section when attached. Attach before concurrent use; null detaches.
  void AttachMetrics(obs::MetricsRegistry* metrics);

  // Writes the model's initialization into the store (version stays 0).
  void Initialize(const Model& model, Rng& rng);
  // Directly sets the parameters (tests, warm starts).
  void SetParams(DenseVector params);

  // Composed snapshot of the full parameter vector plus the global version,
  // copied shard by shard on the calling thread. See the header note on torn
  // cross-shard snapshots. The pool parameter is ignored; it survives only
  // because benchmarks/e2e/e2e_bench.cc passes one (ROADMAP item 1 deletes
  // it).
  PullResult Pull(ThreadPool* ignored = nullptr) const;

  // Allocation-free Pull: fills `result` in place, reusing its params buffer
  // when already sized. Both engines keep one snapshot buffer per worker and
  // refill it here, so a steady-state pull allocates nothing.
  void PullInto(PullResult* result) const;

  // Snapshot of one shard (internally consistent: slice + shard version are
  // read under the shard's mutex).
  ShardPullResult PullShard(std::size_t s) const;

  // Allocation-free single-shard refresh: copies shard `s`'s slice into
  // `dest` (which must be exactly the shard's length) and returns the shard
  // version read under the same lock. Delta-mode pulls use this to refresh
  // only the shards whose version advanced.
  std::uint64_t PullShardSlice(std::size_t s, std::span<double> dest) const;

  // Applies one worker's gradient with the learning rate of `epoch`; returns
  // the new global version. Routes to dirty shards only: sparse gradients
  // touch just the shards owning their indices, dense gradients touch all.
  // Equivalent to PushShard on every routed shard followed by CommitPush.
  std::uint64_t Push(const Gradient& grad, EpochId epoch);

  // Applies only shard `s`'s slice of `grad`, scanning every entry of a
  // sparse gradient. Bumps the shard version iff the slice was non-empty;
  // never bumps the global version. Returns whether the slice touched the
  // shard. A caller that has the routes uses PushRoute instead.
  bool PushShard(std::size_t s, const Gradient& grad, EpochId epoch);

  // Wire-path variant of PushShard for dense gradients: `slice` is already
  // cut to shard `s` (slice.size() must equal the shard's length — a
  // PushShardReq ships only the shard's slice, never the full vector).
  // Same version semantics as PushShard.
  bool PushShardDenseSlice(std::size_t s, std::span<const double> slice,
                           EpochId epoch);

  // Wire-path variant of PushShard for sparse gradients: the decoded
  // entries (values[i] belongs to indices[i]) are applied in place, never
  // copied into a Gradient first. Entries outside shard `s` are skipped, as
  // PushShard skips them. Same version semantics as PushShard.
  bool PushShardSparse(std::size_t s, std::span<const std::uint64_t> indices,
                       std::span<const double> values, EpochId epoch);

  // Completes a logical push whose slices were applied via PushShard: bumps
  // and returns the global version. A network-duplicated slice re-applied
  // without a commit is intentionally not a new logical push.
  std::uint64_t CommitPush();

  // Global logical-push counter (monotone; equals the number of Push calls
  // plus explicit CommitPush calls, independent of how many shards each
  // touched).
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  std::size_t dim() const { return dim_; }
  std::size_t num_shards() const { return shards_.size(); }
  ShardInfo shard(std::size_t s) const;

  // Shard owning parameter `index` (offsets are immutable; lock-free).
  std::size_t ShardOf(std::size_t index) const;

  // Bytes a full pull moves over the wire (8 bytes per parameter).
  std::size_t pull_bytes() const { return dim_ * sizeof(double); }
  // Bytes the per-shard pull response for shard `s` carries.
  std::size_t shard_bytes(std::size_t s) const;

  // Wire routing of one push: the shards `grad` touches and the bytes each
  // per-shard message carries (dense: every shard, slice bytes; sparse:
  // owning shards, 16 bytes per entry). An empty gradient routes one empty
  // message to shard 0 so a push is never silently message-free. Routes
  // come out in ascending shard order, whatever the index order.
  //
  // [begin, end) is the range of the gradient's entries that holds every
  // entry of the shard: for a sparse gradient, from the shard's first entry
  // to one past its last (exactly its own entries when the indices are
  // sorted; an unsorted gradient may interleave other shards' entries in
  // it); for a dense one, the shard's slice. PushRoute applies only that
  // range.
  struct ShardRoute {
    std::size_t shard = 0;
    std::size_t bytes = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };
  std::vector<ShardRoute> RouteGradient(const Gradient& grad) const;
  // RouteGradient into a caller-owned buffer (cleared first): allocation-free
  // once `routes` has held num_shards() entries.
  void RouteGradientInto(const Gradient& grad,
                         std::vector<ShardRoute>& routes) const;

  // PushShard(route.shard, grad, epoch) reading only the route's entry
  // range: the same entries apply in the same order, so the result is
  // bit-identical, but each shard of a sorted sparse push scans its own
  // entries instead of the whole gradient. `route` must come from
  // RouteGradientInto(grad). The store's Push and the simulator's per-shard
  // push messages (each applied at its own arrival time) land here.
  bool PushRoute(const ShardRoute& route, const Gradient& grad, EpochId epoch);

  // Push with the routing already done: `routes` must be what
  // RouteGradientInto(grad) produced. A caller that also needs the routes
  // (the runtime's consistency gate) routes once per push this way; the
  // two-argument Push is this plus RouteGradient.
  std::uint64_t Push(const Gradient& grad, EpochId epoch,
                     std::span<const ShardRoute> routes);

  // Copy of current parameters for evaluation (same as Pull().params).
  DenseVector Snapshot() const { return Pull().params; }

 private:
  struct Shard {
    std::size_t offset = 0;
    std::size_t length = 0;
    mutable std::mutex mutex;
    std::uint64_t version = 0;  // guarded by mutex
    // Contention instruments (null = off); set once by AttachMetrics.
    obs::LatencyHistogram* lock_wait = nullptr;
    obs::LatencyHistogram* lock_hold = nullptr;
  };

  const std::size_t dim_;
  std::shared_ptr<const SgdApplier> applier_;
  // Shards guard disjoint slices of this flat vector; the vector itself is
  // sized at construction and never reallocated.
  DenseVector params_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> version_{0};

  // Whole-operation instruments (null = off); set once by AttachMetrics.
  obs::LatencyHistogram* pull_hist_ = nullptr;
  obs::LatencyHistogram* push_hist_ = nullptr;
};

}  // namespace specsync
