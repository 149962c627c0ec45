// Transport configuration seam: endpoints and topology.
//
// PR-5's transport hard-coded 127.0.0.1 into every socket call, so "the
// servers are other machines" was a simulation convention, not a config
// choice. This header is the seam that removes that assumption:
//
//   Endpoint        — a (host, port) pair. Loopback stays the tested default
//                     (an empty or "localhost" host resolves to 127.0.0.1),
//                     but nothing downstream bakes the address in: a topology
//                     naming real remote hosts flows through the same code.
//   ShardPlacement  — one shard's slice of the parameter vector plus the
//                     endpoint of the server that owns it.
//   ClusterTopology — the full shard → endpoint map a client needs. Shards
//                     must tile the vector contiguously from offset 0
//                     (ParameterServer::ShardSplit produces the canonical
//                     layout); several shards may share one endpoint, in
//                     which case the client multiplexes them over a single
//                     connection (see shard_client.h).
//
// This header is deliberately dependency-light (strings and integers only)
// so config surfaces — RuntimeConfig, bench flags — can include it without
// pulling in sockets.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace specsync::net {

struct Endpoint {
  // "" and "localhost" mean 127.0.0.1; otherwise an IPv4 dotted quad or a
  // resolvable host name (resolution happens at connect/bind time).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  friend bool operator==(const Endpoint&, const Endpoint&) = default;
};

// "host:port" (the canonical loopback host prints as "127.0.0.1:port").
std::string ToString(const Endpoint& endpoint);

// Exists only because benchmarks/e2e/e2e_bench.cc spells it; nothing reads it.
enum class ServerModel { kEventLoop };

struct ShardPlacement {
  std::size_t offset = 0;
  std::size_t length = 0;
  Endpoint endpoint;
};

struct ClusterTopology {
  // Shard id = index. Offsets must be contiguous ascending from 0.
  std::vector<ShardPlacement> shards;

  // Total parameter dimension (sum of shard lengths).
  std::size_t dim() const;

  // True when the placement tiles [0, dim) contiguously and every endpoint
  // has a nonzero port. On failure, `error` (if given) names the bad shard.
  bool Validate(std::string* error = nullptr) const;

  // Endpoints in first-appearance order, deduplicated — the set of physical
  // links a client opens (one multiplexed connection each).
  std::vector<Endpoint> DistinctEndpoints() const;

  // Shard index -> index into DistinctEndpoints().
  std::vector<std::size_t> ShardLinkIndex() const;

  // All shards of `split` (ParameterServer::ShardSplit layout) behind one
  // endpoint — the runtime's loopback default.
  static ClusterTopology SingleServer(
      const std::vector<std::pair<std::size_t, std::size_t>>& split,
      const Endpoint& endpoint);
};

}  // namespace specsync::net
