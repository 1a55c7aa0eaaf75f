#include "sim/fiber.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/engine.hpp"

namespace ds::sim {
namespace {

TEST(Fiber, RunsToCompletion) {
  int value = 0;
  Fiber f([&] { value = 42; });
  EXPECT_FALSE(f.finished());
  f.resume();
  EXPECT_TRUE(f.finished());
  EXPECT_EQ(value, 42);
}

TEST(Fiber, YieldSuspendsAndResumes) {
  std::vector<int> order;
  Fiber f([&] {
    order.push_back(1);
    Fiber::yield();
    order.push_back(3);
  });
  f.resume();
  order.push_back(2);
  f.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, MultipleYields) {
  int steps = 0;
  Fiber f([&] {
    for (int i = 0; i < 5; ++i) {
      ++steps;
      Fiber::yield();
    }
  });
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(f.finished());
    f.resume();
  }
  EXPECT_EQ(steps, 5);
  f.resume();  // run past the loop to the end
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ExceptionPropagatesToResumer) {
  Fiber f([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.resume(), std::runtime_error);
  EXPECT_TRUE(f.finished());
}

TEST(Fiber, ResumeAfterFinishThrows) {
  Fiber f([] {});
  f.resume();
  EXPECT_THROW(f.resume(), std::logic_error);
}

TEST(Fiber, YieldOutsideFiberThrows) { EXPECT_THROW(Fiber::yield(), std::logic_error); }

TEST(Fiber, InFiberFlag) {
  bool inside = false;
  EXPECT_FALSE(Fiber::in_fiber());
  Fiber f([&] { inside = Fiber::in_fiber(); });
  f.resume();
  EXPECT_TRUE(inside);
  EXPECT_FALSE(Fiber::in_fiber());
}

TEST(Fiber, NestedFibers) {
  std::vector<int> order;
  Fiber inner([&] {
    order.push_back(2);
    Fiber::yield();
    order.push_back(4);
  });
  Fiber outer([&] {
    order.push_back(1);
    inner.resume();
    order.push_back(3);
    inner.resume();
    order.push_back(5);
  });
  outer.resume();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, ManyFibersSmallStacks) {
  constexpr int kCount = 200;
  std::vector<std::unique_ptr<Fiber>> fibers;
  int sum = 0;
  for (int i = 0; i < kCount; ++i)
    fibers.push_back(std::make_unique<Fiber>([&sum, i] { sum += i; }, 32 * 1024));
  for (auto& f : fibers) f->resume();
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

/// Fill `bytes` of the calling fiber's stack with `pattern`, yield, and
/// report whether every byte still holds it. The volatile accesses keep
/// the block in stack memory.
bool fill_yield_check(std::size_t bytes, unsigned char pattern) {
  volatile unsigned char* block =
      static_cast<volatile unsigned char*>(__builtin_alloca(bytes));
  for (std::size_t i = 0; i < bytes; ++i) block[i] = pattern;
  Fiber::yield();
  for (std::size_t i = 0; i < bytes; ++i)
    if (block[i] != pattern) return false;
  return true;
}

TEST(Fiber, StacksOfTwoSizesAliveAtOnceKeepTheirContents) {
  // Two allocators of three slots each, so each maps a second chunk. All
  // ten fibers are alive at once; each fills all but 4 KiB of its stack
  // with its own byte, yields, and finds the bytes intact afterwards: no
  // slot overlaps another slot or its guard page.
  constexpr std::size_t kSmall = 16 * 1024, kLarge = 64 * 1024;
  StackChunks small(kSmall, 3), large(kLarge, 3);
  std::vector<std::unique_ptr<Fiber>> fibers;
  std::vector<int> intact(10, 0);
  for (int i = 0; i < 10; ++i) {
    const std::size_t bytes = i % 2 == 0 ? kSmall : kLarge;
    fibers.push_back(std::make_unique<Fiber>(
        [&intact, i, bytes] {
          intact[static_cast<std::size_t>(i)] = fill_yield_check(
              bytes - 4096, static_cast<unsigned char>(0xA0 + i));
        },
        i % 2 == 0 ? small : large));
  }
  for (auto& f : fibers) f->resume();  // every fiber fills and yields
  for (auto& f : fibers) f->resume();  // every fiber checks
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(fibers[static_cast<std::size_t>(i)]->finished());
    EXPECT_TRUE(intact[static_cast<std::size_t>(i)]) << "fiber " << i;
  }
}

TEST(Fiber, EnginesSpawnPastOneStackChunkAndAfterAnotherEngineIsGone) {
  // More processes than one chunk holds run to completion, and a second
  // engine maps stacks of its own once the first one is destroyed.
  constexpr int kProcs = static_cast<int>(StackChunks::kSlotsPerChunk) + 44;
  for (int engine_round = 0; engine_round < 2; ++engine_round) {
    Engine engine;
    int finished = 0;
    for (int i = 0; i < kProcs; ++i)
      engine.spawn([&finished](Process& p) {
        p.advance(10);
        p.advance(10);
        ++finished;
      });
    engine.run();
    EXPECT_EQ(finished, kProcs) << "engine " << engine_round;
    EXPECT_EQ(engine.now(), 20);
  }
}

// ---- guard page -----------------------------------------------------------
// The overflowing fiber's stack: the handler below reads these, so they are
// set before the fiber recurses.
std::uintptr_t g_fiber_top = 0;  ///< an address in the fiber's first frame
std::size_t g_stack_bytes = 0;   ///< the fiber's usable stack
std::size_t g_page = 0;
constexpr int kGuardPageHit = 42;

void report_fault(int, siginfo_t* info, void*) {
  // The stack top is the page boundary at or above the first frame, and
  // the guard page is the page right below the usable stack.
  const auto fault = reinterpret_cast<std::uintptr_t>(info->si_addr);
  const std::uintptr_t top = (g_fiber_top + g_page - 1) / g_page * g_page;
  const std::uintptr_t low = top - g_stack_bytes;
  if (fault >= low - g_page && fault < low) {
    constexpr char kMsg[] = "fault on the guard page\n";
    (void)!::write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
    ::_exit(kGuardPageHit);
  }
  constexpr char kMsg[] = "fault outside the guard page\n";
  (void)!::write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
  ::_exit(1);
}

[[gnu::noinline]] int recurse(int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth == 1 << 30) return frame[0];  // never: the guard page is first
  return recurse(depth + 1) + frame[0];
}

void overflow_an_engine_fiber() {
  constexpr std::size_t kStack = 32 * 1024;
#ifdef DS_FIBER_ASAN
  g_stack_bytes = 4 * kStack;  // stacks are scaled for instrumented frames
#else
  g_stack_bytes = kStack;
#endif
  g_page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  // The handler runs on a stack of its own: the fiber's is exhausted.
  static std::vector<char> handler_stack(64 * 1024);
  stack_t alt{};
  alt.ss_sp = handler_stack.data();
  alt.ss_size = handler_stack.size();
  ::sigaltstack(&alt, nullptr);
  struct sigaction action{};
  action.sa_sigaction = report_fault;
  action.sa_flags = SA_SIGINFO | SA_ONSTACK;
  ::sigaction(SIGSEGV, &action, nullptr);

  EngineConfig config;
  config.stack_bytes = kStack;
  Engine engine(config);
  engine.spawn([](Process&) {
    g_fiber_top = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
    (void)recurse(0);
  });
  engine.run();
}

TEST(FiberDeathTest, EngineFiberThatOverflowsFaultsOnItsGuardPage) {
  EXPECT_EXIT(overflow_an_engine_fiber(),
              ::testing::ExitedWithCode(kGuardPageHit),
              "fault on the guard page");
}

}  // namespace
}  // namespace ds::sim
