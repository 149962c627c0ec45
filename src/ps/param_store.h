// Sharded, versioned parameter store — the server side of the PS architecture
// (paper Fig. 1).
//
// The canonical model parameters live here as one flat vector partitioned
// into contiguous shards, each shard standing for one server process with its
// *own* mutex and version counter. Workers Pull() composed snapshots and
// Push() gradients; a shard server answers per-shard pulls through
// PullShardSlice, the one locked shard read. The store applies pushes
// through an SgdApplier exactly like MXNet's KVStore server-side
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
#include <cstddef>
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

class ParameterServer {
 public:
  // Splits `dim` parameters into `num_shards` near-equal contiguous shards
  // (ShardLayout::Even).
  ParameterServer(std::size_t dim, std::size_t num_shards,
                  std::shared_ptr<const SgdApplier> applier);
  // Shards laid out as `layout` says (zero-length shards included).
  ParameterServer(ShardLayout layout,
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
  // when already sized, one PullShardSlice per shard. Both engines keep one
  // snapshot buffer per worker and refill it here, so a steady-state pull
  // allocates nothing.
  void PullInto(PullResult* result) const;

  // The one locked shard read: copies shard `s`'s slice into `dest` (which
  // must be exactly the shard's bytes, shard_bytes(s)) and returns the shard
  // version read under the same lock, so slice and version always agree.
  // The destination is bytes, not doubles, so a shard server copies each
  // shard straight into its response frame, where the doubles sit
  // unaligned; PullInto and the simulator's delta pulls pass their doubles'
  // bytes.
  std::uint64_t PullShardSlice(std::size_t s, std::span<std::byte> dest) const;
  std::uint64_t PullShardSlice(std::size_t s, std::span<double> dest) const {
    return PullShardSlice(s, std::as_writable_bytes(dest));
  }

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
  // Gradient first; entries outside the shard are skipped. With `width`
  // above 1 the entries are rows of `width` consecutive indices
  // (indices.size() a multiple of it), applied row by row
  // (SgdApplier::ApplySparseSlice) exactly as PushRoute applies an aligned
  // route: a decoded kind-3 wire slice carries its row width, so the shard
  // server applies by row too. Same version semantics as
  // PushShardDenseSlice.
  bool PushShardSparse(std::size_t s, std::span<const std::uint64_t> indices,
                       std::span<const double> values, EpochId epoch,
                       std::size_t width = 1);

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

  // Bytes the per-shard pull response for shard `s` carries.
  std::size_t shard_bytes(std::size_t s) const;

  // Applies one route of `grad` to its shard, reading only the route's
  // entry range, with the version semantics of PushShardDenseSlice. A
  // sparse route aligned to grad's block_width() applies row by row.
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
