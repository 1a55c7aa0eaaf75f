// Discrete-event engine multiplexing simulated ranks (fibers) over a virtual
// clock.
//
// Execution model:
//  * Every simulated process is a fiber; the engine runs on the host stack.
//  * Time only advances between events; while a fiber runs, the clock is
//    frozen at the event's timestamp (standard DES semantics).
//  * All cross-process interaction goes through scheduled events, so a run is
//    a pure function of (program, seed): same inputs, same event order, same
//    virtual times — on any machine.
//
// Blocking primitives for higher layers (the message-passing runtime):
//  * Process::advance(d)    — occupy the CPU for d of virtual time.
//  * Process::compute(d, l) — advance with noise applied and trace label l.
//  * Process::suspend()     — sleep until Engine::wake(pid); a wake arriving
//    before the suspend is not lost (binary token, condition-loop friendly).
//
// One wait contract holds for all of them:
//  * A process whose resume time is fixed — its own advance, or a fused
//    Engine::wake_at — is busy until that time. Any other wake that lands
//    meanwhile leaves the token for its next suspend.
//  * A process marked by Engine::kill never returns from advance or
//    suspend: each rethrows the kill's reason instead, on entry and at the
//    process's next resume, which comes no earlier than its wait would
//    have ended.
#pragma once

#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/noise.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace ds::sim {

class Engine;

struct EngineConfig {
  std::size_t stack_bytes = Fiber::kDefaultStackBytes;
  std::uint64_t seed = 42;
  NoiseConfig noise{};
};

/// Raised when the event queue drains while processes are still blocked.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what) : std::runtime_error(what) {}
};

/// Handle a simulated process body uses to interact with the engine.
/// Only valid inside the fiber it was issued to.
class Process {
 public:
  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] Engine& engine() const noexcept { return *engine_; }
  [[nodiscard]] util::SimTime now() const noexcept;
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }

  /// Occupy this process for `d` of virtual time (no noise). The process
  /// is busy until then: a wake that arrives meanwhile leaves its token for
  /// the next suspend instead of ending the advance early.
  void advance(util::SimTime d);

  /// Occupy this process for `nominal` perturbed by the engine's noise model;
  /// records a Compute span labeled `label` when tracing is on.
  void compute(util::SimTime nominal, const char* label = "comp");

  /// Sleep until woken. Returns immediately (consuming the token) if a wake
  /// arrived since the last suspend.
  void suspend();

  /// True once Engine::kill has marked this process: it runs no further
  /// than the unwinding of its current blocking call.
  [[nodiscard]] bool killed() const noexcept { return killed_ != nullptr; }

  /// Trace-section helpers (no-ops when tracing is off). The runtime layers
  /// auto-instrument their spans through these; applications rarely need
  /// them directly (compute() labels cover the usual case).
  void trace_begin(const char* label, obs::SpanKind kind = obs::SpanKind::Other);
  /// Close the innermost open span. A killed process closes nothing: its
  /// track may already carry a successor's spans (see set_trace_rank).
  void trace_end();
  /// Record an instant event on this process's trace track (no-op when
  /// tracing is off).
  void trace_instant(const char* name);

  /// Trace track this process records spans on. Defaults to the engine pid;
  /// layers that respawn fibers (Machine::restart_rank) pin it to the world
  /// rank so every incarnation of a rank shares one track.
  void set_trace_rank(int rank) noexcept { trace_rank_ = rank; }
  [[nodiscard]] int trace_rank() const noexcept { return trace_rank_; }

  /// State tag shown in deadlock reports ("blocked in wait()"). Takes a
  /// string literal (or other static-storage string): the hot blocking
  /// primitives set it on every wait, and building a std::string there was
  /// a per-element heap allocation.
  void set_state_note(const char* note) { state_note_ = note; }

 private:
  friend class Engine;
  Process(Engine* engine, int id, std::uint64_t seed)
      : engine_(engine), id_(id), trace_rank_(id),
        rng_(util::Rng::for_stream(seed, static_cast<std::uint64_t>(id))) {}

  /// Busy: suspended with a fixed resume time (advance, fused wake_at).
  enum class State { Created, Runnable, Running, Suspended, Busy, Finished };

  /// Throw the kill's reason if this process has been killed.
  void rethrow_if_killed() const;

  Engine* engine_;
  int id_;
  int trace_rank_;
  util::Rng rng_;
  State state_ = State::Created;
  bool wake_pending_ = false;
  const char* state_note_ = nullptr;
  std::exception_ptr killed_;  ///< Engine::kill's reason, once killed
  std::unique_ptr<Fiber> fiber_;
};

class Engine {
 public:
  /// `trace` turns on span recording (trace()); mpi::Machine passes
  /// MachineConfig::observability.trace.
  explicit Engine(EngineConfig config = {}, bool trace = false);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Create a simulated process; `body` starts at the current virtual time,
  /// unless the process is killed first, in which case it never starts.
  /// Returns the process id (dense, starting at 0).
  int spawn(std::function<void(Process&)> body);

  /// Schedule an action at absolute virtual time `t` (must be >= now()).
  /// Actions are small-buffer Callbacks: the typical pointer-capture lambda
  /// is stored inline, no heap allocation per event.
  void schedule(util::SimTime t, Callback action);
  void schedule_after(util::SimTime delay, Callback action);

  /// Wake a suspended process. Safe to call before the process suspends;
  /// a busy process (see wake_at) keeps the token for its next suspend.
  void wake(int pid);

  /// Wake `pid` at absolute virtual time `t` (must be >= now()), fused into
  /// one event: the scheduled action resumes the process directly instead of
  /// enqueueing a second wake event at `t`. The building block for charging
  /// a receive overhead *at* the wake-up rather than as a separate advance
  /// (which costs its own event and context-switch pair). A process
  /// suspended now is busy until `t`, as in an advance; any other process
  /// gets wake()'s semantics at `t`.
  void wake_at(int pid, util::SimTime t);

  /// Fail-stop `pid`: mark it so that its blocking calls throw `reason`
  /// instead of returning (see the wait contract above). Wakes nothing: a
  /// process blocked now unwinds when its wait would have ended, so the
  /// event-driven state it waits on never outlives the buffers its stack
  /// owns. A process not yet started never starts its body. No effect on a
  /// finished or already killed process.
  void kill(int pid, std::exception_ptr reason);

  /// Run until every process finished. Throws DeadlockError if the event
  /// queue drains first; propagates exceptions thrown by process bodies.
  void run();

  /// Tear-down after an aborted run(): resume every unfinished process once
  /// so its fiber unwinds its stack, running the destructors of what it
  /// owns, instead of the stack being discarded with them. The caller kills
  /// every process first, so each resume throws out of the blocking call
  /// and no body can block again; exceptions escaping a body are swallowed.
  void unwind_processes() noexcept;

  [[nodiscard]] util::SimTime now() const noexcept { return clock_; }
  [[nodiscard]] std::size_t process_count() const noexcept { return processes_.size(); }
  [[nodiscard]] std::size_t live_count() const noexcept { return live_; }
  [[nodiscard]] const NoiseModel& noise() const noexcept { return noise_; }
  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

  /// Process currently executing, or nullptr when the engine itself runs.
  [[nodiscard]] Process* current() noexcept { return running_; }

  /// Span/instant recorder (ds::obs), or nullptr when tracing is off.
  [[nodiscard]] obs::Recorder* trace() noexcept { return trace_.get(); }

  /// Events executed so far (proxy for simulation cost; used by benches).
  [[nodiscard]] std::uint64_t events_executed() const noexcept { return events_executed_; }

 private:
  friend class Process;
  /// Make a suspended or busy `p` runnable, resuming it in a new event now.
  void make_runnable(Process& p);
  void resume_process(Process& p);
  [[noreturn]] void report_deadlock() const;

  EngineConfig config_;
  StackChunks stacks_;  ///< every process's fiber stack
  NoiseModel noise_;
  EventQueue queue_;
  util::SimTime clock_ = 0;
  std::vector<std::unique_ptr<Process>> processes_;
  std::size_t live_ = 0;
  Process* running_ = nullptr;
  std::unique_ptr<obs::Recorder> trace_;
  std::uint64_t events_executed_ = 0;
};

/// RAII span over a blocking runtime section: opens a span on construction
/// and closes it on destruction (exception-safe — a crash unwinding the
/// fiber still closes it). Costs one null check when tracing is off, so it
/// is safe to put on hot blocking paths.
class SpanScope {
 public:
  SpanScope(Process& p, obs::SpanKind kind, const char* label) {
    if (p.engine().trace() == nullptr) return;
    p_ = &p;
    p.trace_begin(label, kind);
  }
  ~SpanScope() {
    if (p_ != nullptr) p_->trace_end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Process* p_ = nullptr;
};

}  // namespace ds::sim
