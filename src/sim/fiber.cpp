#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <stdexcept>

#ifdef DS_FIBER_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

namespace ds::sim {

namespace {
thread_local Fiber* t_current_fiber = nullptr;

[[nodiscard]] std::size_t page_size() {
  static const auto size = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

[[nodiscard]] std::size_t round_up_pages(std::size_t bytes) {
  const std::size_t p = page_size();
  return (bytes + p - 1) / p * p;
}

/// ASan-instrumented frames carry redzones and bookkeeping that inflate
/// stack use severalfold; scale fiber stacks so sanitizer CI runs the same
/// programs without tripping the guard page.
[[nodiscard]] std::size_t scaled_stack_bytes(std::size_t bytes) {
#ifdef DS_FIBER_ASAN
  return bytes * 4;
#else
  return bytes;
#endif
}
}  // namespace

#if DS_FIBER_RAW_X86_64

// ---- raw x86-64 switch ------------------------------------------------------
// System V ABI: a cooperative switch only needs the callee-saved registers
// (rbp, rbx, r12-r15), the SSE and x87 control words, and the stack pointer.
// Everything is pushed onto the outgoing stack, the stack pointers swap, and
// `ret` continues the incoming context — no kernel entry, unlike glibc's
// swapcontext (which issues rt_sigprocmask on every switch).
//
// ds_fiber_switch(void** save_sp, void* restore_sp)
asm(R"(
.text
.globl ds_fiber_switch
.hidden ds_fiber_switch
.type ds_fiber_switch, @function
.align 16
ds_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  retq
.size ds_fiber_switch, .-ds_fiber_switch
)");

// First activation lands here via the `retq` above, with the Fiber* parked
// in r12 by the initial stack image. The shim restores 16-byte call
// alignment and enters C++; the body must never return through the shim.
asm(R"(
.text
.globl ds_fiber_entry_shim
.hidden ds_fiber_entry_shim
.type ds_fiber_entry_shim, @function
.align 16
ds_fiber_entry_shim:
  movq %r12, %rdi
  subq $8, %rsp
  call ds_fiber_entry@PLT
  ud2
.size ds_fiber_entry_shim, .-ds_fiber_entry_shim
)");

extern "C" {
void ds_fiber_switch(void** save_sp, void* restore_sp) noexcept;
void ds_fiber_entry_shim() noexcept;
void ds_fiber_entry(void* fiber) noexcept;
}

void fiber_entry_thunk(Fiber* fiber) {
#ifdef DS_FIBER_ASAN
  // First activation: tell ASan the switch from the host stack completed,
  // learning the host stack bounds for the switches back.
  __sanitizer_finish_switch_fiber(nullptr, &fiber->asan_host_bottom_,
                                  &fiber->asan_host_size_);
#endif
  fiber->run_body();
  // Return control to the resumer for good; resuming a finished fiber is an
  // error caught in resume(), so this switch never comes back.
  for (;;) Fiber::yield();
}

extern "C" void ds_fiber_entry(void* fiber) noexcept {
  fiber_entry_thunk(static_cast<Fiber*>(fiber));
}

Fiber::Fiber(std::function<void()> body, StackChunks::Slot stack)
    : body_(std::move(body)), stack_chunk_(std::move(stack.chunk)) {
#ifdef DS_FIBER_ASAN
  asan_stack_low_ = stack.low;
  asan_stack_bytes_ = stack.bytes;
#endif
  // Build the initial stack image ds_fiber_switch will restore from: the
  // control-word slot, six callee-saved registers (r12 carries `this` into
  // the entry shim), the shim as the `ret` target, and a null terminator
  // frame above it.
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));

  auto top = reinterpret_cast<std::uintptr_t>(stack.low) + stack.bytes;
  top &= ~static_cast<std::uintptr_t>(15);  // 16-byte aligned stack top
  auto* sp = reinterpret_cast<std::uint64_t*>(top);
  *--sp = 0;  // fake return address: stops unwinders, keeps shim alignment
  *--sp = reinterpret_cast<std::uint64_t>(&ds_fiber_entry_shim);  // ret target
  *--sp = 0;                                    // rbp
  *--sp = 0;                                    // rbx
  *--sp = reinterpret_cast<std::uint64_t>(this);  // r12 -> entry shim arg
  *--sp = 0;                                    // r13
  *--sp = 0;                                    // r14
  *--sp = 0;                                    // r15
  *--sp = static_cast<std::uint64_t>(mxcsr) |
          (static_cast<std::uint64_t>(fcw) << 32);  // control words
  fiber_sp_ = sp;
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("Fiber::resume on finished fiber");
  Fiber* previous = t_current_fiber;
  t_current_fiber = this;
  started_ = true;
#ifdef DS_FIBER_ASAN
  __sanitizer_start_switch_fiber(&asan_host_fake_, asan_stack_low_,
                                 asan_stack_bytes_);
#endif
  ds_fiber_switch(&host_sp_, fiber_sp_);
#ifdef DS_FIBER_ASAN
  __sanitizer_finish_switch_fiber(asan_host_fake_, nullptr, nullptr);
#endif
  t_current_fiber = previous;
  if (finished_ && pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

void Fiber::yield() {
  Fiber* self = t_current_fiber;
  if (!self) throw std::logic_error("Fiber::yield called outside any fiber");
#ifdef DS_FIBER_ASAN
  // A finished fiber never runs again: passing null releases its fake stack.
  __sanitizer_start_switch_fiber(
      self->finished_ ? nullptr : &self->asan_fiber_fake_,
      self->asan_host_bottom_, self->asan_host_size_);
#endif
  ds_fiber_switch(&self->fiber_sp_, self->host_sp_);
#ifdef DS_FIBER_ASAN
  __sanitizer_finish_switch_fiber(self->asan_fiber_fake_,
                                  &self->asan_host_bottom_,
                                  &self->asan_host_size_);
#endif
}

#else  // !DS_FIBER_RAW_X86_64: portable ucontext implementation

Fiber::Fiber(std::function<void()> body, StackChunks::Slot stack)
    : body_(std::move(body)), stack_chunk_(std::move(stack.chunk)) {
  if (::getcontext(&context_) != 0)
    throw std::runtime_error("Fiber: getcontext failed");
  context_.uc_stack.ss_sp = stack.low;
  context_.uc_stack.ss_size = stack.bytes;
  context_.uc_link = &return_context_;  // falling off the end returns to resumer

  // makecontext only forwards ints; split `this` across two unsigned halves.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
                static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self & 0xFFFFFFFFu));
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  const auto self_bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  reinterpret_cast<Fiber*>(self_bits)->run_body();
}

void Fiber::resume() {
  if (finished_) throw std::logic_error("Fiber::resume on finished fiber");
  Fiber* previous = t_current_fiber;
  t_current_fiber = this;
  started_ = true;
  if (::swapcontext(&return_context_, &context_) != 0)
    throw std::runtime_error("Fiber: swapcontext into fiber failed");
  t_current_fiber = previous;
  if (finished_ && pending_exception_) {
    auto ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

void Fiber::yield() {
  Fiber* self = t_current_fiber;
  if (!self) throw std::logic_error("Fiber::yield called outside any fiber");
  if (::swapcontext(&self->context_, &self->return_context_) != 0)
    throw std::runtime_error("Fiber: swapcontext out of fiber failed");
}

#endif  // DS_FIBER_RAW_X86_64

StackChunks::StackChunks(std::size_t stack_bytes, std::size_t slots_per_chunk)
    : stack_bytes_(round_up_pages(scaled_stack_bytes(stack_bytes))),
      slots_per_chunk_(slots_per_chunk),
      next_(slots_per_chunk) {}

StackChunks::Slot StackChunks::take() {
  const std::size_t slot_bytes = page_size() + stack_bytes_;  // guard + stack
  if (next_ == slots_per_chunk_) {
    const std::size_t bytes = slots_per_chunk_ * slot_bytes;
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED)
      throw std::runtime_error("Fiber: mmap of stack chunk failed");
    chunk_ = std::shared_ptr<void>(base,
                                   [bytes](void* p) { ::munmap(p, bytes); });
    next_ = 0;
  }
  char* guard = static_cast<char*>(chunk_.get()) + next_++ * slot_bytes;
  if (::mprotect(guard, page_size(), PROT_NONE) != 0)
    throw std::runtime_error("Fiber: mprotect of guard page failed");
  return Slot{chunk_, guard + page_size(), stack_bytes_};
}

Fiber::Fiber(std::function<void()> body, std::size_t stack_bytes)
    : Fiber(std::move(body), StackChunks(stack_bytes, 1).take()) {}

Fiber::Fiber(std::function<void()> body, StackChunks& stacks)
    : Fiber(std::move(body), stacks.take()) {}

void Fiber::run_body() {
  try {
    body_();
  } catch (...) {
    pending_exception_ = std::current_exception();
  }
  finished_ = true;
  // ucontext: uc_link takes control back to return_context_ on return.
  // Raw x86-64: fiber_entry_thunk yields back to the resumer.
}

bool Fiber::in_fiber() noexcept { return t_current_fiber != nullptr; }

}  // namespace ds::sim
