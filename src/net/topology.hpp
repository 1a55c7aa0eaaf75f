// Pluggable machine topology: maps (src rank, dst rank) to the sequence of
// *shared* links the message crosses, so net::Fabric can serialize traffic
// through them and congestion emerges where real machines feel it — node
// up-links and the tapered upper tier — not just at endpoint NICs.
//
// Link namespace (ids are dense, 0-based):
//
//   [0, nodes)                node up-links   (node -> first switch tier)
//   [nodes, 2*nodes)          node down-links (first switch tier -> node)
//   [2*nodes, 2*nodes+pods)   tier up-links   (pod/group -> core/global)
//   [.., 2*nodes+2*pods)      tier down-links (core/global -> pod/group)
//
// Routes (deterministic minimal paths; adaptive routing is out of scope):
//
//   Flat       — every path is empty: contention only at endpoint ports.
//   TwoLevel   — inter-node: src node up-link, dst node down-link.
//   FatTree    — adds pod links for inter-pod paths, plus two tier-hop
//                latencies for the core traversal.
//   Dragonfly  — inter-group minimal route: the group-to-group global link is
//                modeled as the source group's up-link plus the destination
//                group's down-link, with one tier-hop latency.
//
// The topology itself is stateless; Fabric owns per-link occupancy.
#pragma once

#include <array>
#include <string>

#include "net/network.hpp"
#include "util/time.hpp"

namespace ds::net {

/// The shared links one message crosses, in traversal order. At most four
/// (node up, tier up, tier down, node down) under all supported families.
struct LinkPath {
  std::array<int, 4> links{};
  int count = 0;
  /// Extra one-way latency from upper-tier switch hops on this route.
  util::SimTime extra_latency = 0;

  void push(int link) { links[static_cast<std::size_t>(count++)] = link; }
  [[nodiscard]] bool empty() const noexcept { return count == 0; }
};

class Topology {
 public:
  Topology(const NetworkConfig& config, int endpoints);

  /// The shared-link route from src to dst. Same-node traffic (and every
  /// path under the flat family) crosses no shared links.
  [[nodiscard]] LinkPath route(int src, int dst) const noexcept;

  [[nodiscard]] const TopologyConfig& config() const noexcept { return topo_; }
  [[nodiscard]] int endpoints() const noexcept { return endpoints_; }
  [[nodiscard]] int node_count() const noexcept { return nodes_; }
  [[nodiscard]] int pod_count() const noexcept { return pods_; }
  /// Total shared links in this machine (0 for flat).
  [[nodiscard]] int link_count() const noexcept { return link_count_; }

  [[nodiscard]] int node_of(int rank) const noexcept {
    return ranks_per_node_ > 0 ? rank / ranks_per_node_ : rank;
  }

  // Link-id accessors (valid only for non-flat topologies).
  [[nodiscard]] int node_up_link(int node) const noexcept { return node; }
  [[nodiscard]] int node_down_link(int node) const noexcept { return nodes_ + node; }
  [[nodiscard]] int tier_up_link(int pod) const noexcept { return 2 * nodes_ + pod; }
  [[nodiscard]] int tier_down_link(int pod) const noexcept {
    return 2 * nodes_ + pods_ + pod;
  }

  /// Per-byte time on a link, with the config's tapers applied.
  [[nodiscard]] double link_ns_per_byte(int link) const noexcept;

  /// Human-readable link name, e.g. "node3:up" or "pod1:down" (diagnostics).
  [[nodiscard]] std::string link_name(int link) const;

 private:
  [[nodiscard]] bool tier_link(int link) const noexcept { return link >= 2 * nodes_; }

  TopologyConfig topo_;
  int endpoints_ = 0;
  int ranks_per_node_ = 0;
  int nodes_ = 0;
  int nodes_per_pod_ = 1;
  int pods_ = 0;
  int link_count_ = 0;
  double node_link_ns_ = 0.0;  // ns/byte incl. taper
  double tier_link_ns_ = 0.0;  // ns/byte incl. taper
  util::SimTime tier_hop_latency_ = 0;
};

}  // namespace ds::net
