#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/rng.hpp"

namespace ds::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakBySchedulingOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) q.push(5, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().action();
  for (int i = 0; i < 50; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeTracksMinimum) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), util::kTimeInfinity);
  q.push(42, [] {});
  q.push(7, [] {});
  EXPECT_EQ(q.next_time(), 7);
  (void)q.pop();
  EXPECT_EQ(q.next_time(), 42);
}

TEST(EventQueue, SizeAndEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  q.push(1, [] {});
  q.push(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  (void)q.pop();
  (void)q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPop) {
  EventQueue q;
  std::vector<int> order;
  q.push(10, [&] { order.push_back(1); });
  q.push(5, [&] { order.push_back(0); });
  Event e = q.pop();
  e.action();
  q.push(7, [&] { order.push_back(2); });  // earlier than remaining event
  while (!q.empty()) q.pop().action();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST(EventQueue, SingleEventPopKeepsActionIntact) {
  // Regression: pop() on a one-event heap used to move the back element
  // onto itself (front() aliases back()), leaving the popped action at the
  // mercy of self-move behavior. The action must survive and fire.
  EventQueue q;
  int fired = 0;
  q.push(11, [&] { ++fired; });
  Event only = q.pop();
  EXPECT_TRUE(q.empty());
  ASSERT_TRUE(static_cast<bool>(only.action));
  only.action();
  EXPECT_EQ(fired, 1);
  // And the queue remains fully usable through repeated 1-element cycles.
  for (int i = 0; i < 5; ++i) {
    q.push(i, [&] { ++fired; });
    q.pop().action();
  }
  EXPECT_EQ(fired, 6);
}

/// A callable that counts its own moves (move constructions).
struct MoveCounter {
  explicit MoveCounter(int* counter) : moves(counter) {}
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) { ++*moves; }
  void operator()() const {}
  int* moves;
};

/// Callback moves per pop + push at a steady heap depth of `pending`.
double moves_per_cycle(int pending) {
  EventQueue q;
  util::Rng rng(7);
  int moves = 0;
  for (int i = 0; i < pending; ++i)
    q.push(rng.uniform_int(0, 1'000'000), MoveCounter{&moves});
  const auto cycle = [&] {
    Event e = q.pop();
    q.push(e.time + rng.uniform_int(1, 1000), std::move(e.action));
  };
  cycle();  // warm-up
  moves = 0;
  constexpr int kCycles = 10'000;
  for (int i = 0; i < kCycles; ++i) cycle();
  return static_cast<double>(moves) / kCycles;
}

TEST(EventQueue, CallbackMovesPerEventStayConstant) {
  // The heap sifts (time, seq, slot) keys and a pending callback stays in
  // its slab slot: a pop + push moves the callback out of its slot, into
  // push's parameter and into a slot again, at any heap depth. (A heap of
  // whole events would move it once per sift level, more as it deepens.)
  EXPECT_LE(moves_per_cycle(64), 3.0);
  EXPECT_LE(moves_per_cycle(4096), 3.0);
}

TEST(EventQueue, EqualTimesKeepPushOrderAcrossSlotReuse) {
  // Freed slots are reused last-freed first, so slots recycled out of order
  // hand later pushes slot numbers unrelated to their push order. Events at
  // one instant must still fire in push order.
  EventQueue q;
  util::Rng rng(11);
  for (int i = 0; i < 64; ++i) q.push(rng.uniform_int(0, 50), [] {});
  for (int i = 0; i < 32; ++i) q.pop().action();
  std::vector<int> fired;
  int next_id = 0;
  for (int round = 0; round < 16; ++round) {
    for (int j = 0; j < 3; ++j) {
      const int id = next_id++;
      q.push(1000, [&fired, id] { fired.push_back(id); });
    }
    q.pop().action();  // an early event; its slot is the next one reused
  }
  while (!q.empty()) q.pop().action();
  ASSERT_EQ(fired.size(), 48u);
  for (int i = 0; i < 48; ++i) EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, StressRandomOrderIsSorted) {
  EventQueue q;
  util::Rng rng(3);
  for (int i = 0; i < 5000; ++i) q.push(rng.uniform_int(0, 1000), [] {});
  util::SimTime last = -1;
  while (!q.empty()) {
    const Event e = q.pop();
    EXPECT_GE(e.time, last);
    last = e.time;
  }
}

}  // namespace
}  // namespace ds::sim
