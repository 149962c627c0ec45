// The shard geometry of the parameter vector (paper Fig. 1): which
// contiguous slice of [0, dim) each server shard owns.
//
// One immutable value answers both questions every layer of the PS asks about
// shards — which shard owns an index, and how a push is cut along the shard
// lines — so the store, the gradient codec's per-shard quantization scales,
// the wire client's push frames and the server's slice checks all read the
// same boundaries and can never disagree on one.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace specsync {

class Gradient;

// One shard's share of a push: the shard, the bytes its message carries
// (sparse: 16 per entry, dense: 8 per parameter) and the range [begin, end)
// of the gradient's entries that holds every entry of the shard. For a
// sparse gradient that range runs from the shard's first entry to one past
// its last: exactly its own entries when the indices are sorted, while an
// unsorted gradient may interleave other shards' entries in it. For a dense
// gradient it is the shard's slice.
struct ShardRoute {
  std::size_t shard = 0;
  std::size_t bytes = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
};

class ShardLayout {
 public:
  // The canonical near-equal split: `num_shards` contiguous shards whose
  // lengths differ by at most one, longer shards first. Every engine and
  // every multi-process harness builds its store with this split, so they
  // agree on shard boundaries without a handshake. Requires
  // 0 < num_shards <= dim.
  static ShardLayout Even(std::size_t dim, std::size_t num_shards);

  // Shards laid back to back from offset 0 with these lengths — an explicit
  // placement such as a wire topology's. Requires at least one shard and a
  // nonzero total.
  static ShardLayout FromLengths(const std::vector<std::size_t>& lengths);

  std::size_t dim() const { return offsets_.back(); }
  std::size_t num_shards() const { return offsets_.size() - 1; }
  // Shard `s`'s slice is [offset(s), offset(s) + length(s)); s must be
  // below num_shards().
  std::size_t offset(std::size_t s) const { return offsets_[s]; }
  std::size_t length(std::size_t s) const {
    return offsets_[s + 1] - offsets_[s];
  }

  // The shard owning parameter `index`; throws CheckError past dim().
  std::size_t ShardOf(std::size_t index) const;

  // Cuts `grad` along the shard lines into `routes` (cleared first; no
  // allocation once it has held num_shards() entries): a dense gradient
  // routes to every shard, a sparse one to the shards owning its indices,
  // in ascending shard order whatever the index order. An empty gradient
  // routes one empty message to shard 0, so a push is never silently
  // message-free. Throws CheckError on an index past dim() or a dense
  // gradient of the wrong size.
  void RouteInto(const Gradient& grad, std::vector<ShardRoute>& routes) const;

 private:
  explicit ShardLayout(std::vector<std::size_t> offsets)
      : offsets_(std::move(offsets)) {}

  // offsets_[s] is shard s's first index; offsets_.back() is dim().
  std::vector<std::size_t> offsets_;
};

}  // namespace specsync
