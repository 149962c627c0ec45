#include "ps/shard_layout.h"

#include <algorithm>
#include <iterator>

#include "common/check.h"
#include "models/model.h"

namespace specsync {

ShardLayout ShardLayout::Even(std::size_t dim, std::size_t num_shards) {
  SPECSYNC_CHECK_GT(dim, 0u);
  SPECSYNC_CHECK_GT(num_shards, 0u);
  SPECSYNC_CHECK_LE(num_shards, dim);
  const std::size_t base = dim / num_shards;
  const std::size_t extra = dim % num_shards;
  std::vector<std::size_t> lengths(num_shards, base);
  for (std::size_t s = 0; s < extra; ++s) ++lengths[s];
  return FromLengths(lengths);
}

ShardLayout ShardLayout::FromLengths(const std::vector<std::size_t>& lengths) {
  SPECSYNC_CHECK(!lengths.empty());
  std::vector<std::size_t> offsets;
  offsets.reserve(lengths.size() + 1);
  offsets.push_back(0);
  for (const std::size_t length : lengths) {
    offsets.push_back(offsets.back() + length);
  }
  SPECSYNC_CHECK_GT(offsets.back(), 0u);
  return ShardLayout(std::move(offsets));
}

std::size_t ShardLayout::ShardOf(std::size_t index) const {
  SPECSYNC_CHECK_LT(index, dim());
  // The owner is the last shard starting at or before `index` (the last, so
  // a zero-length shard never owns anything).
  const auto it =
      std::upper_bound(offsets_.begin(), offsets_.end() - 1, index);
  return static_cast<std::size_t>(std::distance(offsets_.begin(), it)) - 1;
}

void ShardLayout::RouteInto(const Gradient& grad,
                            std::vector<ShardRoute>& routes) const {
  routes.clear();
  routes.reserve(num_shards());  // one allocation for a fresh vector, at most
  if (!grad.is_sparse()) {
    SPECSYNC_CHECK_EQ(grad.dense().size(), dim());
    for (std::size_t s = 0; s < num_shards(); ++s) {
      routes.push_back(ShardRoute{s, length(s) * sizeof(double), offset(s),
                                  offset(s) + length(s)});
    }
    return;
  }
  const SparseUpdate& update = grad.sparse();
  const auto indices = update.indices();
  if (update.strictly_increasing()) {
    // Sorted without duplicates (how every engine builds its gradients):
    // the last index bounds them all, and each shard's entries are one run,
    // so one binary search per shard finds where the run ends.
    if (!indices.empty()) {
      SPECSYNC_CHECK_LT(indices.back(), dim());
    }
    const auto first = indices.begin();
    auto cut = first;
    for (std::size_t s = 0; s < num_shards() && cut != indices.end(); ++s) {
      const auto end = std::lower_bound(cut, indices.end(), offsets_[s + 1]);
      if (end != cut) {
        const auto lo = static_cast<std::size_t>(cut - first);
        const auto hi = static_cast<std::size_t>(end - first);
        routes.push_back(ShardRoute{s, 16 * (hi - lo), lo, hi});
      }
      cut = end;
    }
  } else {
    // Tally bytes and the entry range per shard in place, then drop the
    // untouched shards. The cursor [lo, hi) is the current shard's range:
    // ShardOf's binary search runs only when an index leaves it.
    for (std::size_t s = 0; s < num_shards(); ++s) {
      routes.push_back(ShardRoute{s, 0});
    }
    std::size_t shard = 0;
    std::size_t lo = 0;
    std::size_t hi = 0;
    for (std::size_t i = 0; i < indices.size(); ++i) {
      const auto index = static_cast<std::size_t>(indices[i]);
      if (index < lo || index >= hi) {
        shard = ShardOf(index);
        lo = offset(shard);
        hi = lo + length(shard);
      }
      ShardRoute& route = routes[shard];
      if (route.bytes == 0) route.begin = i;
      route.end = i + 1;
      route.bytes += 16;
    }
    std::erase_if(routes, [](const ShardRoute& r) { return r.bytes == 0; });
  }
  // An empty gradient still crosses the wire as one (empty) message, so the
  // push protocol and version accounting see exactly one logical push.
  if (routes.empty()) routes.push_back(ShardRoute{0, 0});
}

}  // namespace specsync
