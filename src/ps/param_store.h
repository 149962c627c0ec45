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
#include <vector>

#include "common/ids.h"
#include "common/rng.h"
#include "models/model.h"
#include "optim/sgd.h"
#include "ps/shard_layout.h"

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
  // Splits `dim` parameters into `num_shards` near-equal contiguous shards
  // (ShardLayout::Even).
  ParameterServer(std::size_t dim, std::size_t num_shards,
                  std::shared_ptr<const SgdApplier> applier);

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
  // Equivalent to PushRoute on every route followed by CommitPush.
  std::uint64_t Push(const Gradient& grad, EpochId epoch);

  // Applies shard `s`'s slice of a dense gradient: `slice` is already cut to
  // the shard (slice.size() must equal the shard's length — a PushShardReq
  // ships only the shard's slice, never the full vector). Bumps the shard
  // version iff the slice was non-empty; never bumps the global version.
  // Returns whether the slice touched the shard.
  bool PushShardDenseSlice(std::size_t s, std::span<const double> slice,
                           EpochId epoch);

  // Applies the entries of a sparse gradient that fall in shard `s`
  // (values[i] belongs to indices[i]) in place, never copying them into a
  // Gradient first; entries outside the shard are skipped. Same version
  // semantics as PushShardDenseSlice.
  bool PushShardSparse(std::size_t s, std::span<const std::uint64_t> indices,
                       std::span<const double> values, EpochId epoch);

  // Completes a logical push whose slices were applied shard by shard: bumps
  // and returns the global version. A network-duplicated slice re-applied
  // without a commit is intentionally not a new logical push.
  std::uint64_t CommitPush();

  // Global logical-push counter (monotone; equals the number of Push calls
  // plus explicit CommitPush calls, independent of how many shards each
  // touched).
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  // The shard geometry (immutable, so reading it takes no lock).
  const ShardLayout& layout() const { return layout_; }
  std::size_t dim() const { return layout_.dim(); }
  std::size_t num_shards() const { return layout_.num_shards(); }
  ShardInfo shard(std::size_t s) const;
  std::size_t ShardOf(std::size_t index) const {
    return layout_.ShardOf(index);
  }

  // Bytes a full pull moves over the wire (8 bytes per parameter).
  std::size_t pull_bytes() const { return dim() * sizeof(double); }
  // Bytes the per-shard pull response for shard `s` carries.
  std::size_t shard_bytes(std::size_t s) const;

  // Applies one route of `grad` to its shard, reading only the route's
  // entry range, with the version semantics of PushShardDenseSlice.
  // `route` must come from layout().RouteInto(grad). The store's Push and
  // the simulator's per-shard push messages (each applied at its own
  // arrival time) land here.
  bool PushRoute(const ShardRoute& route, const Gradient& grad, EpochId epoch);

  // Push with the routing already done: `routes` must be what
  // layout().RouteInto(grad) produced. A caller that also needs the routes
  // (the runtime's consistency gate) routes once per push this way; the
  // two-argument Push is this plus the routing.
  std::uint64_t Push(const Gradient& grad, EpochId epoch,
                     std::span<const ShardRoute> routes);

  // Copy of current parameters for evaluation (same as Pull().params).
  DenseVector Snapshot() const { return Pull().params; }

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::uint64_t version = 0;  // guarded by mutex
    // Contention instruments (null = off); set once by AttachMetrics.
    obs::LatencyHistogram* lock_wait = nullptr;
    obs::LatencyHistogram* lock_hold = nullptr;
  };

  const ShardLayout layout_;
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
