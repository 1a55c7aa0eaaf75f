#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ds::net {
namespace {

NetworkConfig shaped(TopologyConfig::Kind kind, int ranks_per_node = 4) {
  NetworkConfig c;
  c.ranks_per_node = ranks_per_node;
  c.topology.kind = kind;
  return c;
}

TEST(Topology, FlatHasNoSharedLinks) {
  const Topology t(shaped(TopologyConfig::Kind::Flat), 16);
  EXPECT_EQ(t.link_count(), 0);
  EXPECT_TRUE(t.route(0, 15).empty());
  EXPECT_TRUE(t.route(3, 3).empty());
}

TEST(Topology, SameNodeTrafficCrossesNoLinks) {
  const Topology t(shaped(TopologyConfig::Kind::TwoLevel), 16);
  EXPECT_TRUE(t.route(0, 3).empty());   // both on node 0
  EXPECT_TRUE(t.route(13, 14).empty()); // both on node 3
}

TEST(Topology, TwoLevelRouteIsSrcUplinkThenDstDownlink) {
  // 16 endpoints, 4 per node -> 4 nodes, 8 links, no pod tier.
  const Topology t(shaped(TopologyConfig::Kind::TwoLevel), 16);
  EXPECT_EQ(t.node_count(), 4);
  EXPECT_EQ(t.link_count(), 8);
  const LinkPath p = t.route(0, 6);  // node 0 -> node 1
  ASSERT_EQ(p.count, 2);
  EXPECT_EQ(p.links[0], t.node_up_link(0));
  EXPECT_EQ(p.links[1], t.node_down_link(1));
  EXPECT_EQ(p.extra_latency, 0);
}

TEST(Topology, FatTreeInterPodAddsTierLinksAndTwoHops) {
  // 4 nodes, near-square split -> 2 nodes/pod, 2 pods, 8 + 4 links.
  const NetworkConfig c = shaped(TopologyConfig::Kind::FatTree);
  const Topology t(c, 16);
  EXPECT_EQ(t.pod_count(), 2);
  EXPECT_EQ(t.link_count(), 12);

  // Intra-pod (node 0 -> node 1): node links only.
  EXPECT_EQ(t.route(0, 4).count, 2);
  EXPECT_EQ(t.route(0, 4).extra_latency, 0);

  // Inter-pod (node 0 -> node 3): up, pod up, pod down, down; two core hops.
  const LinkPath p = t.route(0, 12);
  ASSERT_EQ(p.count, 4);
  EXPECT_EQ(p.links[0], t.node_up_link(0));
  EXPECT_EQ(p.links[1], t.tier_up_link(0));
  EXPECT_EQ(p.links[2], t.tier_down_link(1));
  EXPECT_EQ(p.links[3], t.node_down_link(3));
  EXPECT_EQ(p.extra_latency, 2 * c.latency_tier_hop);
}

TEST(Topology, DragonflyMinimalRouteAddsOneHop) {
  const NetworkConfig c = shaped(TopologyConfig::Kind::Dragonfly);
  const Topology t(c, 16);
  const LinkPath p = t.route(0, 12);  // group 0 -> group 1
  ASSERT_EQ(p.count, 4);
  EXPECT_EQ(p.extra_latency, c.latency_tier_hop);
}

TEST(Topology, ExplicitNodesPerPodOverridesNearSquare) {
  NetworkConfig c = shaped(TopologyConfig::Kind::FatTree);
  c.topology.nodes_per_pod = 1;
  const Topology t(c, 16);
  EXPECT_EQ(t.pod_count(), 4);
  // Every inter-node pair is now inter-pod.
  EXPECT_EQ(t.route(0, 4).count, 4);
}

TEST(Topology, NoLocalityMakesEveryRankItsOwnNode) {
  const Topology t(shaped(TopologyConfig::Kind::TwoLevel, 0), 4);
  EXPECT_EQ(t.node_count(), 4);
  EXPECT_EQ(t.node_of(3), 3);
  EXPECT_EQ(t.route(0, 1).count, 2);  // no pair shares a node
}

TEST(Topology, TapersScaleLinkByteTimeAndClampBelowOne) {
  NetworkConfig c = shaped(TopologyConfig::Kind::FatTree);
  c.ns_per_byte_node_link = 0.5;
  c.ns_per_byte_tier_link = 0.25;
  c.topology.node_link_taper = 2.0;
  c.topology.tier_link_taper = 0.1;  // invalid: must clamp to 1
  const Topology t(c, 16);
  EXPECT_DOUBLE_EQ(t.link_ns_per_byte(t.node_up_link(0)), 1.0);
  EXPECT_DOUBLE_EQ(t.link_ns_per_byte(t.node_down_link(3)), 1.0);
  EXPECT_DOUBLE_EQ(t.link_ns_per_byte(t.tier_up_link(0)), 0.25);
}

TEST(Topology, LinkNamesAreReadable) {
  const Topology t(shaped(TopologyConfig::Kind::FatTree), 16);
  EXPECT_EQ(t.link_name(t.node_up_link(2)), "node2:up");
  EXPECT_EQ(t.link_name(t.node_down_link(0)), "node0:down");
  EXPECT_EQ(t.link_name(t.tier_up_link(1)), "pod1:up");
  EXPECT_EQ(t.link_name(t.tier_down_link(0)), "pod0:down");
}

TEST(Topology, RejectsNonPositiveEndpoints) {
  EXPECT_THROW(Topology(shaped(TopologyConfig::Kind::Flat), 0),
               std::invalid_argument);
}

TEST(TopologyConfig, NamedParsesEveryFamily) {
  EXPECT_EQ(TopologyConfig::named("flat").kind, TopologyConfig::Kind::Flat);
  EXPECT_EQ(TopologyConfig::named("twolevel").kind,
            TopologyConfig::Kind::TwoLevel);
  EXPECT_EQ(TopologyConfig::named("two-level").kind,
            TopologyConfig::Kind::TwoLevel);
  EXPECT_EQ(TopologyConfig::named("fattree").kind,
            TopologyConfig::Kind::FatTree);
  EXPECT_EQ(TopologyConfig::named("fat-tree").kind,
            TopologyConfig::Kind::FatTree);
  EXPECT_EQ(TopologyConfig::named("dragonfly").kind,
            TopologyConfig::Kind::Dragonfly);
  EXPECT_THROW((void)TopologyConfig::named("mesh"), std::invalid_argument);
  EXPECT_STREQ(TopologyConfig::named("dragonfly").name(), "dragonfly");
}

}  // namespace
}  // namespace ds::net
