#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace ds::sim {
namespace {

TEST(Engine, SingleProcessAdvancesClock) {
  Engine eng;
  eng.spawn([](Process& p) {
    p.advance(util::microseconds(5));
    p.advance(util::microseconds(3));
  });
  eng.run();
  EXPECT_EQ(eng.now(), util::microseconds(8));
  EXPECT_EQ(eng.live_count(), 0u);
}

TEST(Engine, ProcessesRunConcurrentlyInVirtualTime) {
  Engine eng;
  for (int i = 0; i < 10; ++i)
    eng.spawn([](Process& p) { p.advance(util::milliseconds(2)); });
  eng.run();
  // Concurrent, not additive: makespan equals one process's time.
  EXPECT_EQ(eng.now(), util::milliseconds(2));
}

TEST(Engine, ScheduledActionsFireAtTheirTime) {
  Engine eng;
  std::vector<util::SimTime> fired;
  eng.schedule(util::microseconds(10), [&] { fired.push_back(10); });
  eng.schedule(util::microseconds(4), [&] { fired.push_back(4); });
  eng.run();
  EXPECT_EQ(fired, (std::vector<util::SimTime>{4, 10}));
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine eng;
  eng.spawn([](Process& p) {
    p.advance(100);
    EXPECT_THROW(p.engine().schedule(10, [] {}), std::logic_error);
  });
  eng.run();
}

TEST(Engine, WakeBeforeSuspendIsNotLost) {
  // The wake lands inside the advance, which still runs to its deadline;
  // the token it leaves makes the following suspend return at once.
  Engine eng;
  util::SimTime advanced_at = -1, resumed_at = -1;
  int pid = eng.spawn([&](Process& p) {
    p.advance(util::microseconds(2));
    advanced_at = p.now();
    p.suspend();  // token pending -> returns immediately
    resumed_at = p.now();
  });
  eng.schedule(util::microseconds(1), [&eng, pid] { eng.wake(pid); });
  eng.run();
  EXPECT_EQ(advanced_at, util::microseconds(2));
  EXPECT_EQ(resumed_at, util::microseconds(2));
}

TEST(Engine, AdvanceRunsToItsDeadlineDespiteAWake) {
  // A wake inside the first advance must not end it, and no advance may end
  // at an earlier advance's deadline.
  Engine eng;
  std::vector<util::SimTime> returned;
  const int pid = eng.spawn([&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      p.advance(util::microseconds(10));
      returned.push_back(p.now());
    }
  });
  eng.schedule(util::microseconds(5), [&eng, pid] { eng.wake(pid); });
  eng.run();
  EXPECT_EQ(returned,
            (std::vector<util::SimTime>{util::microseconds(10),
                                        util::microseconds(20),
                                        util::microseconds(30)}));
}

TEST(Engine, FusedWakeIsBusyUntilItsTime) {
  // wake_at on a suspended process fixes its resume time: a plain wake in
  // between leaves a token instead of resuming it early.
  Engine eng;
  util::SimTime resumed_at = -1;
  const int pid = eng.spawn([&](Process& p) {
    p.suspend();
    resumed_at = p.now();
  });
  eng.schedule(util::microseconds(1), [&eng, pid] {
    eng.wake_at(pid, util::microseconds(10));
  });
  eng.schedule(util::microseconds(2), [&eng, pid] { eng.wake(pid); });
  eng.run();
  EXPECT_EQ(resumed_at, util::microseconds(10));
}

struct Killed : std::runtime_error {
  Killed() : std::runtime_error("killed") {}
};

TEST(Engine, KilledProcessNeverReturnsFromItsWait) {
  // One process is killed inside an advance, the other inside a suspend.
  // Neither runs the code after its call: each call throws the kill's
  // reason instead, the advance at its deadline and the suspend when it is
  // woken.
  Engine eng;
  bool advance_returned = false, suspend_returned = false;
  util::SimTime advance_threw_at = -1, suspend_threw_at = -1;
  const int busy = eng.spawn([&](Process& p) {
    try {
      p.advance(util::microseconds(10));
      advance_returned = true;
    } catch (const Killed&) {
      advance_threw_at = p.now();
    }
  });
  const int asleep = eng.spawn([&](Process& p) {
    try {
      p.suspend();
      suspend_returned = true;
    } catch (const Killed&) {
      suspend_threw_at = p.now();
    }
  });
  eng.schedule(util::microseconds(5), [&] {
    eng.kill(busy, std::make_exception_ptr(Killed{}));
    eng.kill(asleep, std::make_exception_ptr(Killed{}));
  });
  eng.schedule(util::microseconds(7), [&eng, asleep] { eng.wake(asleep); });
  eng.run();
  EXPECT_FALSE(advance_returned);
  EXPECT_FALSE(suspend_returned);
  EXPECT_EQ(advance_threw_at, util::microseconds(10));
  EXPECT_EQ(suspend_threw_at, util::microseconds(7));
  EXPECT_EQ(eng.live_count(), 0u);
}

TEST(Engine, ProcessKilledBeforeItStartsNeverRunsItsBody) {
  Engine eng;
  bool started = false;
  const int pid = eng.spawn([&](Process&) { started = true; });
  eng.kill(pid, std::make_exception_ptr(Killed{}));
  eng.run();
  EXPECT_FALSE(started);
  EXPECT_EQ(eng.live_count(), 0u);
}

TEST(Engine, SuspendBlocksUntilWake) {
  Engine eng;
  util::SimTime resumed_at = -1;
  const int pid = eng.spawn([&](Process& p) {
    p.suspend();
    resumed_at = p.now();
  });
  eng.schedule(util::microseconds(7), [&eng, pid] { eng.wake(pid); });
  eng.run();
  EXPECT_EQ(resumed_at, util::microseconds(7));
}

TEST(Engine, DeadlockIsReported) {
  Engine eng;
  eng.spawn([](Process& p) {
    p.set_state_note("waiting forever");
    p.suspend();
  });
  try {
    eng.run();
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("waiting forever"), std::string::npos);
  }
}

TEST(Engine, ProcessExceptionPropagates) {
  Engine eng;
  eng.spawn([](Process&) { throw std::runtime_error("app failure"); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, ComputeAppliesNoiseDeterministically) {
  EngineConfig cfg;
  cfg.noise = NoiseConfig{0.2, 0.0, 0};
  cfg.seed = 77;
  util::SimTime t1 = 0, t2 = 0;
  for (util::SimTime* out : {&t1, &t2}) {
    Engine eng(cfg);
    eng.spawn([&](Process& p) { p.compute(util::milliseconds(1)); });
    eng.run();
    *out = eng.now();
  }
  EXPECT_EQ(t1, t2);            // determinism
  EXPECT_NE(t1, util::milliseconds(1));  // noise moved it
}

TEST(Engine, RanksHaveIndependentRngStreams) {
  Engine eng;
  std::vector<std::uint64_t> draws;
  for (int i = 0; i < 3; ++i)
    eng.spawn([&](Process& p) { draws.push_back(p.rng().next_u64()); });
  eng.run();
  EXPECT_NE(draws[0], draws[1]);
  EXPECT_NE(draws[1], draws[2]);
}

TEST(Engine, TraceRecordsComputeIntervals) {
  Engine eng(EngineConfig{}, /*trace=*/true);
  eng.spawn([](Process& p) { p.compute(util::microseconds(10), "work"); });
  eng.run();
  ASSERT_NE(eng.trace(), nullptr);
  ASSERT_EQ(eng.trace()->intervals().size(), 1u);
  const auto& iv = eng.trace()->intervals().front();
  EXPECT_EQ(iv.label, "work");
  EXPECT_EQ(iv.end - iv.begin, util::microseconds(10));
}

TEST(Engine, EventsExecutedCounts) {
  Engine eng;
  eng.schedule(1, [] {});
  eng.schedule(2, [] {});
  eng.run();
  EXPECT_EQ(eng.events_executed(), 2u);
}

/// An inline (48-byte) action that schedules `kEvents` events, then reads
/// its own capture.
struct Burst {
  static constexpr int kEvents = 10'000;
  Engine* engine;
  int* fired;
  std::uint64_t* seen;
  std::uint64_t a, b, c;
  void operator()() const {
    for (int i = 0; i < kEvents; ++i)
      engine->schedule_after(1 + i % 7, [f = fired] { ++*f; });
    *seen = a ^ b ^ c;
  }
};
static_assert(sizeof(Burst) == 48 && sizeof(Burst) <= Callback::kInlineBytes);

TEST(Engine, CallbackThatSchedulesThousandsOfEventsStaysIntact) {
  // This action grows the event slab by thousands of slots while it runs.
  // Its capture must stay intact: an action run where it lies in storage
  // that relocates reads freed memory (a use-after-free under
  // AddressSanitizer).
  Engine eng;
  int fired = 0;
  std::uint64_t seen = 0;
  eng.schedule(0, Burst{&eng, &fired, &seen, 0x0123456789abcdefull,
                        0xfedcba9876543210ull, 0x0f0f0f0f0f0f0f0full});
  eng.run();
  EXPECT_EQ(seen, 0x0123456789abcdefull ^ 0xfedcba9876543210ull ^
                      0x0f0f0f0f0f0f0f0full);
  EXPECT_EQ(fired, Burst::kEvents);
  EXPECT_EQ(eng.events_executed(), 1u + Burst::kEvents);
}

TEST(Engine, SpawnFromInsideProcess) {
  Engine eng;
  bool child_ran = false;
  eng.spawn([&](Process& p) {
    p.advance(5);
    p.engine().spawn([&](Process& c) {
      c.advance(5);
      child_ran = true;
    });
  });
  eng.run();
  EXPECT_TRUE(child_ran);
  EXPECT_EQ(eng.now(), 10);
}

TEST(Engine, DeterministicEventOrderAcrossRuns) {
  auto run_once = [] {
    Engine eng(EngineConfig{.stack_bytes = 32 * 1024, .seed = 5, .noise = {}});
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
      eng.spawn([&order, i](Process& p) {
        p.advance(100 * (i % 3));
        order.push_back(i);
      });
    }
    eng.run();
    return order;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ds::sim
