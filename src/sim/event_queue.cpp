#include "sim/event_queue.hpp"

#include <utility>

namespace ds::sim {

std::uint64_t EventQueue::push(util::SimTime t, Callback action) {
  std::uint32_t s;
  if (free_.empty()) {
    s = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(std::move(action));
  } else {
    s = free_.back();
    free_.pop_back();
    slab_[s] = std::move(action);
  }
  const Key entry{t, next_seq_++, s};
  // Hole-based sift-up: slide later parents down into the hole, then place
  // the new key once.
  std::size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
  return entry.seq;
}

Event EventQueue::pop() {
  const Key top = heap_.front();
  const Key tail = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Hole-based sift-down from the root: pull the smaller child up into
    // the hole until the displaced tail key fits, then place it once.
    std::size_t i = 0;
    while (true) {
      const std::size_t left = 2 * i + 1;
      if (left >= n) break;
      const std::size_t right = left + 1;
      const std::size_t child =
          (right < n && before(heap_[right], heap_[left])) ? right : left;
      if (!before(heap_[child], tail)) break;
      heap_[i] = heap_[child];
      i = child;
    }
    heap_[i] = tail;
  }
  free_.push_back(top.slot);
  return Event{top.time, top.seq, std::move(slab_[top.slot])};
}

}  // namespace ds::sim
