// The per-index routing reference the shard-routing tests share: one
// ShardOf binary search per entry, then the touched shards in order, each
// with its byte count and the entry range [begin, end) from its first entry
// to one past its last. It reads nothing but ShardOf, so it is independent
// of both of ShardLayout::RouteInto's paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ps/shard_layout.h"

namespace specsync {

inline std::vector<ShardRoute> ReferenceRoutes(
    const ShardLayout& layout, const std::vector<std::uint64_t>& indices) {
  std::vector<ShardRoute> per_shard(layout.num_shards());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    ShardRoute& route =
        per_shard[layout.ShardOf(static_cast<std::size_t>(indices[i]))];
    if (route.bytes == 0) route.begin = i;
    route.end = i + 1;
    route.bytes += 16;
  }
  std::vector<ShardRoute> routes;
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    if (per_shard[s].bytes == 0) continue;
    per_shard[s].shard = s;
    routes.push_back(per_shard[s]);
  }
  if (routes.empty()) routes.push_back({0, 0});
  return routes;
}

}  // namespace specsync
