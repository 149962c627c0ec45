// Endpoint / ClusterTopology unit tests: the config seam that replaced the
// hard-coded loopback addresses. Validation must be loud and name the bad
// shard; link derivation (DistinctEndpoints / ShardLinkIndex) defines how
// many sockets a client opens, so its dedup and ordering are pinned here.
// The resolution tests at the bottom prove "" and "localhost" really reach a
// bound listener.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "net/endpoint.h"
#include "net/socket.h"

namespace specsync::net {
namespace {

Endpoint Ep(std::uint16_t port, std::string host = "127.0.0.1") {
  return Endpoint{std::move(host), port};
}

TEST(EndpointTest, ToStringCanonicalizesLoopbackSpellings) {
  EXPECT_EQ(ToString(Ep(9000)), "127.0.0.1:9000");
  EXPECT_EQ(ToString(Ep(9000, "")), "127.0.0.1:9000");
  EXPECT_EQ(ToString(Ep(9000, "localhost")), "127.0.0.1:9000");
  EXPECT_EQ(ToString(Ep(80, "10.1.2.3")), "10.1.2.3:80");
}

TEST(TopologyTest, DimSumsShardLengths) {
  ClusterTopology topology;
  topology.shards = {ShardPlacement{0, 4, Ep(1)}, ShardPlacement{4, 6, Ep(1)}};
  EXPECT_EQ(topology.dim(), 10u);
  EXPECT_EQ(ClusterTopology{}.dim(), 0u);
}

TEST(TopologyTest, ValidAndInvalidLayouts) {
  ClusterTopology topology;
  std::string error;
  EXPECT_FALSE(topology.Validate(&error));  // empty
  EXPECT_EQ(error, "topology has no shards");

  topology.shards = {ShardPlacement{0, 5, Ep(1)}, ShardPlacement{5, 5, Ep(2)}};
  EXPECT_TRUE(topology.Validate(&error));
  EXPECT_TRUE(topology.Validate());  // error out-param optional

  topology.shards[1].offset = 6;  // gap after shard 0
  EXPECT_FALSE(topology.Validate(&error));
  EXPECT_NE(error.find("shard 1"), std::string::npos) << error;

  topology.shards[1].offset = 5;
  topology.shards[1].endpoint.port = 0;  // unbound endpoint
  EXPECT_FALSE(topology.Validate(&error));
  EXPECT_NE(error.find("port 0"), std::string::npos) << error;

  topology.shards = {ShardPlacement{1, 5, Ep(1)}};  // must start at 0
  EXPECT_FALSE(topology.Validate(&error));
  EXPECT_NE(error.find("shard 0"), std::string::npos) << error;

  topology.shards = {ShardPlacement{0, 0, Ep(1)}};  // zero total parameters
  EXPECT_FALSE(topology.Validate(&error));
}

TEST(TopologyTest, DistinctEndpointsDedupesInFirstAppearanceOrder) {
  ClusterTopology topology;
  topology.shards = {
      ShardPlacement{0, 2, Ep(7001)}, ShardPlacement{2, 2, Ep(7002)},
      ShardPlacement{4, 2, Ep(7001)}, ShardPlacement{6, 2, Ep(7003)},
      ShardPlacement{8, 2, Ep(7002)}};
  const std::vector<Endpoint> links = topology.DistinctEndpoints();
  ASSERT_EQ(links.size(), 3u);
  EXPECT_EQ(links[0].port, 7001);
  EXPECT_EQ(links[1].port, 7002);
  EXPECT_EQ(links[2].port, 7003);
  // Same port on a different host is a different link.
  topology.shards.push_back(ShardPlacement{10, 2, Ep(7001, "10.0.0.1")});
  EXPECT_EQ(topology.DistinctEndpoints().size(), 4u);
}

TEST(TopologyTest, ShardLinkIndexMapsEveryShardToItsLink) {
  ClusterTopology topology;
  topology.shards = {
      ShardPlacement{0, 2, Ep(7001)}, ShardPlacement{2, 2, Ep(7002)},
      ShardPlacement{4, 2, Ep(7001)}, ShardPlacement{6, 2, Ep(7003)}};
  EXPECT_EQ(topology.ShardLinkIndex(),
            (std::vector<std::size_t>{0, 1, 0, 2}));
}

TEST(TopologyTest, SingleServerPlacesEveryShardBehindOneEndpoint) {
  const std::vector<std::pair<std::size_t, std::size_t>> split = {
      {0, 3}, {3, 3}, {6, 4}};
  const ClusterTopology topology =
      ClusterTopology::SingleServer(split, Ep(7100));
  ASSERT_EQ(topology.shards.size(), 3u);
  EXPECT_EQ(topology.dim(), 10u);
  EXPECT_TRUE(topology.Validate());
  EXPECT_EQ(topology.DistinctEndpoints().size(), 1u);
  EXPECT_EQ(topology.shards[2].offset, 6u);
  EXPECT_EQ(topology.shards[2].length, 4u);
}

TEST(EndpointResolutionTest, EmptyAndLocalhostHostsReachALoopbackListener) {
  auto listener = TcpListener::Bind(Endpoint{"127.0.0.1", 0});
  ASSERT_NE(listener, nullptr);
  ASSERT_GT(listener->port(), 0);
  for (const char* host : {"", "localhost", "127.0.0.1"}) {
    TcpConnection conn =
        TcpConnection::Connect(Endpoint{host, listener->port()});
    EXPECT_TRUE(conn.valid()) << "host '" << host << "'";
    TcpConnection accepted = listener->Accept();
    EXPECT_TRUE(accepted.valid()) << "host '" << host << "'";
  }
}

TEST(EndpointResolutionTest, UnresolvableHostFailsCleanly) {
  TcpConnection conn = TcpConnection::Connect(
      Endpoint{"no-such-host.invalid", 9});
  EXPECT_FALSE(conn.valid());
}

}  // namespace
}  // namespace specsync::net
