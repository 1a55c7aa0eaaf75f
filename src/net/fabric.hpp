// Stateful fabric: tracks when each endpoint's transmit and drain ports free
// up — and, under a non-flat topology, when each shared link on the route
// frees up — serializing concurrent messages through them. This is where
// congestion emerges: a rank receiving from many peers accumulates drain-port
// backlog, and a node (or tapered upper tier) carrying many flows accumulates
// link backlog the flat model cannot express.
#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "util/time.hpp"

namespace ds::net {

struct DeliverySchedule {
  /// When the payload has fully arrived and is matchable at the receiver.
  util::SimTime deliver_at = 0;
  /// When the sender's transmit port is free again (isend completion for
  /// buffered/eager sends).
  util::SimTime sender_free_at = 0;
};

class Fabric {
 public:
  Fabric(NetworkConfig config, int endpoints);

  /// Reserve transmit (src) and drain (dst) port time — plus occupancy on
  /// every shared link along the topology route — for a message of `bytes`
  /// injected no earlier than `earliest`. Mutates port/link state; callers
  /// must invoke it in nondecreasing `earliest` order per endpoint pair for
  /// physical sensibility (the engine's event order guarantees this).
  DeliverySchedule schedule_message(int src, int dst, std::size_t bytes,
                                    util::SimTime earliest);

  [[nodiscard]] const NetworkConfig& config() const noexcept { return config_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] int endpoints() const noexcept { return static_cast<int>(tx_free_.size()); }

  /// Cumulative bytes scheduled through the fabric (for bench reporting).
  [[nodiscard]] std::uint64_t total_bytes() const noexcept { return total_bytes_; }
  [[nodiscard]] std::uint64_t total_messages() const noexcept { return total_messages_; }

  /// Cumulative bytes carried per shared link (bench/diagnostic heat map).
  [[nodiscard]] const std::vector<std::uint64_t>& link_bytes() const noexcept {
    return link_bytes_;
  }

  /// Snapshot fabric state into the metrics registry (a ds::obs collector):
  /// message/byte totals, a distribution over per-link carried bytes, and
  /// per-link byte gauges (link id as the rank dimension) for the heat map.
  void sample_metrics(obs::Metrics& m) const;

 private:
  NetworkConfig config_;
  Topology topology_;
  std::vector<util::SimTime> tx_free_;    // per-endpoint transmit port
  std::vector<util::SimTime> rx_free_;    // per-endpoint drain port
  std::vector<util::SimTime> link_free_;  // per shared link occupancy
  std::vector<std::uint64_t> link_bytes_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_messages_ = 0;
};

}  // namespace ds::net
