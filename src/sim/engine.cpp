#include "sim/engine.hpp"

#include <sstream>
#include <stdexcept>

namespace ds::sim {

util::SimTime Process::now() const noexcept { return engine_->now(); }

void Process::rethrow_if_killed() const {
  if (killed_) std::rethrow_exception(killed_);
}

void Process::advance(util::SimTime d) {
  if (d < 0) throw std::logic_error("Process::advance: negative duration");
  if (engine_->current() != this)
    throw std::logic_error("Process::advance called from outside the process");
  rethrow_if_killed();
  // The deadline ends the busy period, and the resume is a second event at
  // the same time, as for any wake: wakes that land before the deadline
  // only leave their token.
  engine_->schedule(engine_->now() + d, [this] {
    if (state_ == State::Busy) engine_->make_runnable(*this);
  });
  state_ = State::Busy;
  Fiber::yield();
  rethrow_if_killed();
}

void Process::compute(util::SimTime nominal, const char* label) {
  const util::SimTime d = engine_->noise().perturb(nominal, rng_);
  trace_begin(label, obs::SpanKind::Compute);
  advance(d);
  trace_end();
}

void Process::suspend() {
  if (engine_->current() != this)
    throw std::logic_error("Process::suspend called from outside the process");
  rethrow_if_killed();
  if (wake_pending_) {
    wake_pending_ = false;
    return;
  }
  state_ = State::Suspended;
  Fiber::yield();
  rethrow_if_killed();
}

void Process::trace_begin(const char* label, obs::SpanKind kind) {
  if (auto* t = engine_->trace())
    t->begin(trace_rank_, engine_->now(), label, kind);
}

void Process::trace_end() {
  if (killed_) return;
  if (auto* t = engine_->trace()) t->end(trace_rank_, engine_->now());
}

void Process::trace_instant(const char* name) {
  if (auto* t = engine_->trace()) t->instant(trace_rank_, engine_->now(), name);
}

Engine::Engine(EngineConfig config, bool trace)
    : config_(config),
      stacks_(config.stack_bytes, StackChunks::kSlotsPerChunk),
      noise_(config.noise) {
  if (trace) trace_ = std::make_unique<obs::Recorder>();
}

Engine::~Engine() = default;

int Engine::spawn(std::function<void(Process&)> body) {
  const int pid = static_cast<int>(processes_.size());
  auto process = std::unique_ptr<Process>(new Process(this, pid, config_.seed));
  Process* p = process.get();
  p->fiber_ = std::make_unique<Fiber>(
      [p, body = std::move(body)] {
        if (!p->killed()) body(*p);
      },
      stacks_);
  p->state_ = Process::State::Runnable;
  processes_.push_back(std::move(process));
  ++live_;
  schedule(clock_, [this, p] { resume_process(*p); });
  return pid;
}

void Engine::schedule(util::SimTime t, Callback action) {
  if (t < clock_) throw std::logic_error("Engine::schedule: time in the past");
  queue_.push(t, std::move(action));
}

void Engine::schedule_after(util::SimTime delay, Callback action) {
  schedule(clock_ + delay, std::move(action));
}

void Engine::wake(int pid) {
  Process& p = *processes_.at(static_cast<std::size_t>(pid));
  if (p.state_ == Process::State::Suspended) {
    make_runnable(p);
  } else if (p.state_ != Process::State::Finished) {
    // Busy, or not yet suspended: leave a token so the next suspend doesn't
    // sleep.
    p.wake_pending_ = true;
  }
}

void Engine::wake_at(int pid, util::SimTime t) {
  if (t < clock_) throw std::logic_error("Engine::wake_at: time in the past");
  Process* p = processes_.at(static_cast<std::size_t>(pid)).get();
  // A process suspended now is busy until t, like an advance. Any other
  // resumes at t only if it is suspended by then, and otherwise keeps the
  // usual token (see wake()).
  const auto resumes_from = p->state_ == Process::State::Suspended
                                ? Process::State::Busy
                                : Process::State::Suspended;
  if (resumes_from == Process::State::Busy) p->state_ = resumes_from;
  queue_.push(t, [this, p, resumes_from] {
    if (p->state_ == resumes_from) {
      p->state_ = Process::State::Runnable;
      resume_process(*p);
    } else if (p->state_ != Process::State::Finished) {
      p->wake_pending_ = true;
    }
  });
}

void Engine::kill(int pid, std::exception_ptr reason) {
  Process& p = *processes_.at(static_cast<std::size_t>(pid));
  if (p.state_ == Process::State::Finished || p.killed()) return;
  p.killed_ = std::move(reason);
}

void Engine::make_runnable(Process& p) {
  p.state_ = Process::State::Runnable;
  queue_.push(clock_, [this, pp = &p] { resume_process(*pp); });
}

void Engine::resume_process(Process& p) {
  // A process can be woken twice (token + event). The second resume of an
  // already-running or runnable-but-moved-on process must be harmless.
  if (p.state_ != Process::State::Runnable) return;
  p.state_ = Process::State::Running;
  running_ = &p;
  p.fiber_->resume();  // rethrows process exceptions on this (host) stack
  running_ = nullptr;
  if (p.fiber_->finished()) {
    p.state_ = Process::State::Finished;
    --live_;
  }
}

void Engine::run() {
  while (!queue_.empty()) {
    Event ev = queue_.pop();
    clock_ = ev.time;
    ++events_executed_;
    ev.action();
  }
  if (live_ > 0) report_deadlock();
}

void Engine::unwind_processes() noexcept {
  for (const auto& p : processes_) {
    if (!p->fiber_->finished()) {
      p->state_ = Process::State::Running;
      running_ = p.get();
      try {
        p->fiber_->resume();
      } catch (...) {
        // The run is already aborting with its own exception.
      }
      running_ = nullptr;
    }
    if (p->fiber_->finished() && p->state_ != Process::State::Finished) {
      p->state_ = Process::State::Finished;
      --live_;
    }
  }
}

void Engine::report_deadlock() const {
  std::ostringstream msg;
  msg << "simulation deadlock at t=" << util::to_seconds(clock_) << "s; "
      << live_ << " process(es) still blocked:";
  int listed = 0;
  for (const auto& p : processes_) {
    if (p->state_ == Process::State::Finished) continue;
    msg << "\n  P" << p->id_ << ' '
        << (p->state_note_ != nullptr && *p->state_note_ != '\0'
                ? p->state_note_
                : "(no state note)");
    if (++listed >= 20) {
      msg << "\n  ... (" << live_ - 20 << " more)";
      break;
    }
  }
  throw DeadlockError(msg.str());
}

}  // namespace ds::sim
