#include "net/fabric.hpp"

#include <algorithm>
#include <stdexcept>

namespace ds::net {

Fabric::Fabric(NetworkConfig config, int endpoints)
    : config_(config),
      topology_(config_, endpoints > 0 ? endpoints : 1),
      tx_free_(static_cast<std::size_t>(endpoints > 0 ? endpoints : 1), 0),
      rx_free_(tx_free_.size(), 0),
      link_free_(static_cast<std::size_t>(topology_.link_count()), 0),
      link_bytes_(link_free_.size(), 0) {
  if (endpoints <= 0) throw std::invalid_argument("Fabric: endpoints must be > 0");
}

DeliverySchedule Fabric::schedule_message(int src, int dst, std::size_t bytes,
                                          util::SimTime earliest) {
  auto& tx = tx_free_.at(static_cast<std::size_t>(src));
  auto& rx = rx_free_.at(static_cast<std::size_t>(dst));

  const double byte_ns = config_.byte_time(src, dst);
  const auto payload_time =
      static_cast<util::SimTime>(byte_ns * static_cast<double>(bytes));

  // Transmit: wait for the sender port, then occupy it for gap + payload.
  const util::SimTime tx_start = std::max(earliest, tx);
  const util::SimTime tx_end = tx_start + config_.injection_gap + payload_time;
  tx = tx_end;

  // Serialize through each shared link on the topology route, in order. A
  // flat topology (and any same-node pair) has an empty route, leaving the
  // historical endpoint-only schedule bit-for-bit intact.
  util::SimTime head = tx_end;
  const LinkPath path = topology_.route(src, dst);
  for (int i = 0; i < path.count; ++i) {
    const int link_id = path.links[static_cast<std::size_t>(i)];
    const auto link = static_cast<std::size_t>(link_id);
    const auto link_time = static_cast<util::SimTime>(
        topology_.link_ns_per_byte(link_id) * static_cast<double>(bytes));
    const util::SimTime start = std::max(head, link_free_[link]);
    head = start + link_time;
    link_free_[link] = head;
    link_bytes_[link] += bytes;
  }

  // Propagate, then drain through the receiver port.
  const util::SimTime arrival =
      head + config_.wire_latency(src, dst) + path.extra_latency;
  const auto drain_time = static_cast<util::SimTime>(
      config_.receiver_drain_factor * byte_ns * static_cast<double>(bytes));
  const util::SimTime rx_start = std::max(arrival, rx);
  const util::SimTime rx_end = rx_start + drain_time;
  rx = rx_end;

  total_bytes_ += bytes;
  ++total_messages_;
  return DeliverySchedule{rx_end, tx_end};
}

void Fabric::sample_metrics(obs::Metrics& m) const {
  m.gauge("fabric.total_bytes").set(static_cast<double>(total_bytes_));
  m.gauge("fabric.total_messages").set(static_cast<double>(total_messages_));
  m.gauge("fabric.links").set(static_cast<double>(link_bytes_.size()));
  // Per-link gauges are capped: a big machine's link set belongs in the
  // histogram, not as thousands of JSON entries.
  constexpr std::size_t kMaxLinkGauges = 64;
  auto& hist = m.histogram("fabric.link_bytes");
  hist.reset();
  for (std::size_t link = 0; link < link_bytes_.size(); ++link) {
    hist.add(static_cast<double>(link_bytes_[link]));
    if (link < kMaxLinkGauges) {
      m.gauge("fabric.link_bytes", static_cast<int>(link))
          .set(static_cast<double>(link_bytes_[link]));
      m.gauge("fabric.link_busy_until_s", static_cast<int>(link))
          .set(util::to_seconds(link_free_[link]));
    }
  }
}

}  // namespace ds::net
