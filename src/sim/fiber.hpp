// Cooperative user-level fibers.
//
// Every simulated MPI rank runs as a fiber, so application code reads like
// ordinary blocking MPI code while the discrete-event engine multiplexes
// thousands of ranks on one OS thread. Stacks are carved out of chunk
// mappings (StackChunks), each with a PROT_NONE guard page below it, so a
// rank that overflows its stack faults immediately instead of corrupting a
// neighbour.
//
// On x86-64 the context switch is a hand-rolled callee-saved-register swap
// (boost::context style): glibc's swapcontext saves and restores the signal
// mask with an rt_sigprocmask syscall per switch, which costs more than the
// entire simulate-one-element hot path. Other architectures keep the
// portable ucontext implementation.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>

#if defined(__x86_64__) && (defined(__linux__) || defined(__unix__))
#define DS_FIBER_RAW_X86_64 1
#else
#include <ucontext.h>
#endif

// AddressSanitizer needs to be told about manual stack switches (its shadow
// stack and fake-stack machinery track one stack per thread): every switch
// is bracketed with __sanitizer_start/finish_switch_fiber, and fiber stacks
// are scaled up for the instrumented frames' extra footprint.
#if defined(__SANITIZE_ADDRESS__)
#define DS_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DS_FIBER_ASAN 1
#endif
#endif

namespace ds::sim {

/// Fiber stacks mapped a chunk of slots at a time: one mmap per chunk, one
/// mprotect per slot's guard page (taken as the slot is handed out), and
/// one munmap once the allocator has moved on and every fiber holding one
/// of the chunk's slots is gone. A slot is never handed out twice. An
/// Engine maps kSlotsPerChunk stacks at once; a standalone Fiber maps a
/// chunk of one.
class StackChunks {
 public:
  static constexpr std::size_t kSlotsPerChunk = 256;

  /// One fiber's stack: `bytes` usable bytes from `low` up, the guard page
  /// just below `low`. `chunk` keeps the mapping alive.
  struct Slot {
    std::shared_ptr<void> chunk;
    char* low = nullptr;
    std::size_t bytes = 0;
  };

  /// Stacks of `stack_bytes` (page-rounded; scaled up under ASan).
  StackChunks(std::size_t stack_bytes, std::size_t slots_per_chunk);

  [[nodiscard]] Slot take();

 private:
  std::size_t stack_bytes_;  ///< usable bytes per slot
  std::size_t slots_per_chunk_;
  std::shared_ptr<void> chunk_;  ///< the chunk slots are taken from
  std::size_t next_;             ///< its next free slot
};

class Fiber {
 public:
  /// 64 KiB is enough for the bundled apps; raise via EngineConfig for deep
  /// call chains. 8,192 ranks at the default cost 512 MiB of address space.
  static constexpr std::size_t kDefaultStackBytes = 64 * 1024;

  explicit Fiber(std::function<void()> body,
                 std::size_t stack_bytes = kDefaultStackBytes);
  /// A fiber on the next slot of `stacks`.
  Fiber(std::function<void()> body, StackChunks& stacks);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the calling context into the fiber; returns when the fiber
  /// yields or finishes. Rethrows any exception that escaped the fiber body.
  void resume();

  /// Must be called from inside a fiber: switch back to whoever resumed it.
  static void yield();

  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// True when the calling code is executing inside some fiber.
  [[nodiscard]] static bool in_fiber() noexcept;

 private:
  Fiber(std::function<void()> body, StackChunks::Slot stack);
  void run_body();

  std::function<void()> body_;
  std::shared_ptr<void> stack_chunk_;  ///< keeps this fiber's stack mapped
#if DS_FIBER_RAW_X86_64
  friend void fiber_entry_thunk(Fiber* fiber);
  void* fiber_sp_ = nullptr;  ///< fiber's saved stack pointer while yielded
  void* host_sp_ = nullptr;   ///< resumer's saved stack pointer while running
#ifdef DS_FIBER_ASAN
  void* asan_host_fake_ = nullptr;   ///< host's fake stack while fiber runs
  void* asan_fiber_fake_ = nullptr;  ///< fiber's fake stack while yielded
  const void* asan_host_bottom_ = nullptr;  ///< host stack, learned on entry
  std::size_t asan_host_size_ = 0;
  const char* asan_stack_low_ = nullptr;  ///< this fiber's stack
  std::size_t asan_stack_bytes_ = 0;
#endif
#else
  static void trampoline(unsigned hi, unsigned lo);
  ucontext_t context_{};
  ucontext_t return_context_{};
#endif
  bool started_ = false;
  bool finished_ = false;
  std::exception_ptr pending_exception_;
};

}  // namespace ds::sim
