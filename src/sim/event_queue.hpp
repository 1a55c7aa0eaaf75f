// Deterministic event queue: a binary min-heap of small (time, seq, slot)
// keys over a slab that holds the callbacks.
//
// The sequence number makes the ordering a total order — two events at the
// same virtual instant fire in the order they were scheduled, on every
// platform, every run. The slot carries no order.
//
// Hot-path notes: the heap sifts 24-byte keys, never callbacks. An event's
// Callback (80 bytes, relocated through an indirect call) is moved into a
// slab slot once when pushed and out of it once when popped, whatever the
// heap depth; freed slots are reused, the last freed first. Both sifts are
// hole-based — the displaced key is held in a local while parents/children
// shift into the hole, one copy per level.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "util/time.hpp"

namespace ds::sim {

struct Event {
  util::SimTime time = 0;
  std::uint64_t seq = 0;
  Callback action;
};

class EventQueue {
 public:
  /// Schedule `action` at absolute time `t`. Returns the event sequence id.
  std::uint64_t push(util::SimTime t, Callback action);

  /// Remove and return the earliest event. Requires !empty().
  [[nodiscard]] Event pop();

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  [[nodiscard]] util::SimTime next_time() const noexcept {
    return heap_.empty() ? util::kTimeInfinity : heap_.front().time;
  }

 private:
  struct Key {
    util::SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;  ///< index into slab_
  };

  [[nodiscard]] static bool before(const Key& a, const Key& b) noexcept {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  std::vector<Key> heap_;
  std::vector<Callback> slab_;
  std::vector<std::uint32_t> free_;  ///< free slab slots, next reused at back
  std::uint64_t next_seq_ = 0;
};

}  // namespace ds::sim
