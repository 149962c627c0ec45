#include "net/endpoint.h"

#include <algorithm>

namespace specsync::net {

std::string ToString(const Endpoint& endpoint) {
  const std::string host =
      endpoint.host.empty() || endpoint.host == "localhost" ? "127.0.0.1"
                                                            : endpoint.host;
  return host + ":" + std::to_string(endpoint.port);
}

std::size_t ClusterTopology::dim() const {
  std::size_t total = 0;
  for (const ShardPlacement& shard : shards) total += shard.length;
  return total;
}

bool ClusterTopology::Validate(std::string* error) const {
  if (shards.empty()) {
    if (error != nullptr) *error = "topology has no shards";
    return false;
  }
  std::size_t expected_offset = 0;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (shards[s].offset != expected_offset) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(s) + " offset " +
                 std::to_string(shards[s].offset) + " breaks contiguity" +
                 " (expected " + std::to_string(expected_offset) + ")";
      }
      return false;
    }
    if (shards[s].endpoint.port == 0) {
      if (error != nullptr) {
        *error = "shard " + std::to_string(s) + " endpoint has port 0";
      }
      return false;
    }
    expected_offset += shards[s].length;
  }
  if (expected_offset == 0) {
    if (error != nullptr) *error = "topology covers zero parameters";
    return false;
  }
  return true;
}

std::vector<Endpoint> ClusterTopology::DistinctEndpoints() const {
  std::vector<Endpoint> out;
  for (const ShardPlacement& shard : shards) {
    if (std::find(out.begin(), out.end(), shard.endpoint) == out.end()) {
      out.push_back(shard.endpoint);
    }
  }
  return out;
}

std::vector<std::size_t> ClusterTopology::ShardLinkIndex() const {
  const std::vector<Endpoint> links = DistinctEndpoints();
  std::vector<std::size_t> out;
  out.reserve(shards.size());
  for (const ShardPlacement& shard : shards) {
    const auto it = std::find(links.begin(), links.end(), shard.endpoint);
    out.push_back(static_cast<std::size_t>(it - links.begin()));
  }
  return out;
}

ClusterTopology ClusterTopology::SingleServer(const ShardLayout& layout,
                                              const Endpoint& endpoint) {
  ClusterTopology topology;
  topology.shards.reserve(layout.num_shards());
  for (std::size_t s = 0; s < layout.num_shards(); ++s) {
    topology.shards.push_back(
        ShardPlacement{layout.offset(s), layout.length(s), endpoint});
  }
  return topology;
}

}  // namespace specsync::net
