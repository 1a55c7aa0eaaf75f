#include "net/fabric.hpp"

#include <gtest/gtest.h>

namespace ds::net {
namespace {

NetworkConfig flat_config() {
  NetworkConfig c;
  c.ranks_per_node = 0;  // all remote, uniform costs
  c.latency = 1000;
  c.ns_per_byte = 1.0;
  c.injection_gap = 100;
  c.receiver_drain_factor = 1.0;
  return c;
}

TEST(Fabric, SingleMessageTiming) {
  Fabric f(flat_config(), 4);
  const auto s = f.schedule_message(0, 1, 500, 0);
  // tx: gap 100 + payload 500 = 600; + latency 1000 -> 1600; drain 500 -> 2100.
  EXPECT_EQ(s.sender_free_at, 600);
  EXPECT_EQ(s.deliver_at, 2100);
}

TEST(Fabric, SenderPortSerializesBackToBackSends) {
  Fabric f(flat_config(), 4);
  const auto first = f.schedule_message(0, 1, 1000, 0);
  const auto second = f.schedule_message(0, 2, 1000, 0);
  EXPECT_EQ(first.sender_free_at, 1100);
  EXPECT_EQ(second.sender_free_at, 2200);  // waited for the port
}

TEST(Fabric, ReceiverDrainSerializesFanIn) {
  Fabric f(flat_config(), 8);
  // Two senders target rank 7 at the same instant; drains serialize.
  const auto a = f.schedule_message(0, 7, 1000, 0);
  const auto b = f.schedule_message(1, 7, 1000, 0);
  EXPECT_EQ(a.deliver_at, 3100);           // 1100 tx + 1000 L + 1000 drain
  EXPECT_EQ(b.deliver_at, a.deliver_at + 1000);  // queued behind a's drain
}

TEST(Fabric, HotspotBacklogGrowsLinearly) {
  Fabric f(flat_config(), 64);
  util::SimTime last = 0;
  for (int src = 0; src < 63; ++src)
    last = f.schedule_message(src, 63, 10'000, 0).deliver_at;
  // 63 senders x 10KB drained at 1ns/B -> at least 630us of drain backlog.
  EXPECT_GE(last, 630'000);
}

TEST(Fabric, DistinctReceiversDoNotContend) {
  Fabric f(flat_config(), 4);
  const auto a = f.schedule_message(0, 1, 1000, 0);
  const auto b = f.schedule_message(2, 3, 1000, 0);
  EXPECT_EQ(a.deliver_at, b.deliver_at);
}

TEST(Fabric, CountsTraffic) {
  Fabric f(flat_config(), 4);
  (void)f.schedule_message(0, 1, 100, 0);
  (void)f.schedule_message(1, 2, 200, 0);
  EXPECT_EQ(f.total_messages(), 2u);
  EXPECT_EQ(f.total_bytes(), 300u);
}

TEST(Fabric, ZeroDrainFactorSkipsReceiverSerialization) {
  NetworkConfig c = flat_config();
  c.receiver_drain_factor = 0.0;
  Fabric f(c, 4);
  const auto a = f.schedule_message(0, 3, 1000, 0);
  const auto b = f.schedule_message(1, 3, 1000, 0);
  EXPECT_EQ(a.deliver_at, b.deliver_at);  // no drain queueing
}

TEST(Fabric, FractionalDrainFactorScalesOnlyTheDrain) {
  NetworkConfig c = flat_config();
  c.receiver_drain_factor = 0.5;
  Fabric f(c, 4);
  const auto a = f.schedule_message(0, 1, 1000, 0);
  // tx: gap 100 + payload 1000 = 1100; + latency 1000; drain 0.5 x 1000.
  EXPECT_EQ(a.sender_free_at, 1100);
  EXPECT_EQ(a.deliver_at, 2600);
  // Another sender's message to rank 1 queues behind a's drain.
  EXPECT_EQ(f.schedule_message(2, 1, 1000, 0).deliver_at, 3100);
}

TEST(Fabric, InvalidEndpointCountThrows) {
  EXPECT_THROW(Fabric(flat_config(), 0), std::invalid_argument);
}

/// Two ranks per node, two-level topology, drain disabled so every timing
/// difference below comes from the shared links alone.
NetworkConfig twolevel_config() {
  NetworkConfig c;
  c.ranks_per_node = 2;
  c.topology.kind = TopologyConfig::Kind::TwoLevel;
  c.latency = 1000;
  c.latency_intra_node = 1000;
  c.ns_per_byte = 1.0;
  c.ns_per_byte_intra_node = 1.0;
  c.ns_per_byte_node_link = 1.0;
  c.injection_gap = 100;
  c.receiver_drain_factor = 0.0;
  return c;
}

TEST(Fabric, NodeUplinkSerializesCoResidentSenders) {
  // Ranks 0 and 1 share node 0; both send off-node at t=0. Their NICs
  // transmit concurrently, but the node's single up-link carries one
  // payload at a time.
  Fabric f(twolevel_config(), 6);
  const auto a = f.schedule_message(0, 2, 1000, 0);  // node 0 -> node 1
  const auto b = f.schedule_message(1, 4, 1000, 0);  // node 0 -> node 2
  // a: tx 1100, uplink0 -> 2100, downlink1 -> 3100, + latency = 4100.
  EXPECT_EQ(a.deliver_at, 4100);
  // b: tx 1100, waits for uplink0 until 2100 -> 3100, downlink2 -> 4100,
  // + latency = 5100.
  EXPECT_EQ(b.deliver_at, 5100);
}

TEST(Fabric, NodeDownlinkSerializesFanIn) {
  // Senders on different nodes target both ranks of node 0: distinct
  // up-links, but node 0's down-link is shared.
  Fabric f(twolevel_config(), 6);
  const auto a = f.schedule_message(2, 0, 1000, 0);
  const auto b = f.schedule_message(4, 1, 1000, 0);
  EXPECT_EQ(a.deliver_at, 4100);
  EXPECT_EQ(b.deliver_at, 5100);  // queued behind a on node0:down
}

TEST(Fabric, SameNodePairKeepsLegacySchedule) {
  // Intra-node traffic crosses no shared links: identical to a flat fabric
  // with the same endpoint costs.
  NetworkConfig c = twolevel_config();
  c.receiver_drain_factor = 1.0;
  NetworkConfig flat = c;
  flat.topology = TopologyConfig{};
  Fabric structured(c, 6);
  Fabric reference(flat, 6);
  const auto a = structured.schedule_message(0, 1, 777, 5);
  const auto b = reference.schedule_message(0, 1, 777, 5);
  EXPECT_EQ(a.deliver_at, b.deliver_at);
  EXPECT_EQ(a.sender_free_at, b.sender_free_at);
}

TEST(Fabric, DeliveryMonotoneUnderMultiLinkCongestion) {
  // A fat-tree with every message crossing four shared links: schedules
  // issued in nondecreasing injection order must deliver in nondecreasing
  // order per destination, whatever the link backlog.
  NetworkConfig c = twolevel_config();
  c.topology.kind = TopologyConfig::Kind::FatTree;
  c.topology.nodes_per_pod = 1;
  c.receiver_drain_factor = 1.0;
  Fabric f(c, 8);
  util::SimTime last_deliver = 0;
  for (int i = 0; i < 32; ++i) {
    const int src = (i % 3) * 2;  // nodes 0..2 -> node 3, inter-pod
    const auto s = f.schedule_message(src, 7, 4000, i * 10);
    EXPECT_GE(s.sender_free_at, i * 10);
    EXPECT_GE(s.deliver_at, s.sender_free_at);
    EXPECT_GE(s.deliver_at, last_deliver);
    last_deliver = s.deliver_at;
  }
}

TEST(Fabric, TaperSlowsSharedLinksOnly) {
  NetworkConfig tapered = twolevel_config();
  tapered.topology.node_link_taper = 4.0;
  Fabric nominal(twolevel_config(), 6);
  Fabric slim(tapered, 6);
  EXPECT_GT(slim.schedule_message(0, 2, 1000, 0).deliver_at,
            nominal.schedule_message(0, 2, 1000, 0).deliver_at);
  // Intra-node messages never see the taper.
  EXPECT_EQ(slim.schedule_message(0, 1, 1000, 0).deliver_at,
            nominal.schedule_message(0, 1, 1000, 0).deliver_at);
}

TEST(Fabric, LinkBytesAccountPerLinkTraffic) {
  Fabric f(twolevel_config(), 6);
  (void)f.schedule_message(0, 2, 100, 0);
  (void)f.schedule_message(1, 2, 50, 0);
  (void)f.schedule_message(0, 1, 900, 0);  // intra-node: no link traffic
  const auto& bytes = f.link_bytes();
  EXPECT_EQ(bytes[static_cast<std::size_t>(f.topology().node_up_link(0))], 150u);
  EXPECT_EQ(bytes[static_cast<std::size_t>(f.topology().node_down_link(1))], 150u);
  EXPECT_EQ(bytes[static_cast<std::size_t>(f.topology().node_up_link(1))], 0u);
}

}  // namespace
}  // namespace ds::net
