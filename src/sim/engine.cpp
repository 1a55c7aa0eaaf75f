#include "sim/engine.hpp"

#include <sstream>
#include <stdexcept>

namespace ds::sim {

util::SimTime Process::now() const noexcept { return engine_->now(); }

void Process::advance(util::SimTime d) {
  if (d < 0) throw std::logic_error("Process::advance: negative duration");
  if (engine_->current() != this)
    throw std::logic_error("Process::advance called from outside the process");
  Engine& eng = *engine_;
  const int pid = id_;
  eng.schedule(eng.now() + d, [&eng, pid] { eng.wake(pid); });
  // advance() models busy CPU time, yet any wake resumes it: one that
  // arrives before `d` has elapsed (a probe or failure-waiter registration
  // the process left behind) cuts the advance short, and a wake token
  // pending from before is left for the next suspend. A known defect (see
  // ROADMAP item 2): fixing it moves virtual time in crashed runs.
  state_ = State::Suspended;
  Fiber::yield();
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
  if (wake_pending_) {
    wake_pending_ = false;
    return;
  }
  state_ = State::Suspended;
  Fiber::yield();
}

void Process::trace_begin(const char* label, obs::SpanKind kind) {
  if (auto* t = engine_->trace())
    t->begin(trace_rank_, engine_->now(), label, kind);
}

void Process::trace_end() {
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
      [p, body = std::move(body)] { body(*p); }, stacks_);
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
  if (p.state_ == Process::State::Finished) return;
  if (p.state_ == Process::State::Suspended) {
    p.state_ = Process::State::Runnable;
    queue_.push(clock_, [this, pp = &p] { resume_process(*pp); });
  } else {
    // Not yet suspended: leave a token so the upcoming suspend doesn't sleep.
    p.wake_pending_ = true;
  }
}

void Engine::wake_at(int pid, util::SimTime t) {
  if (t < clock_) throw std::logic_error("Engine::wake_at: time in the past");
  Process* p = processes_.at(static_cast<std::size_t>(pid)).get();
  queue_.push(t, [this, p] {
    if (p->state_ == Process::State::Finished) return;
    if (p->state_ == Process::State::Suspended) {
      p->state_ = Process::State::Runnable;
      resume_process(*p);
    } else {
      // Not suspended at fire time: leave the usual token (see wake()).
      p->wake_pending_ = true;
    }
  });
}

void Engine::resume_process(Process& p) {
  if (p.state_ == Process::State::Finished) return;
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
  constexpr int kMaxResumes = 64;
  for (const auto& p : processes_) {
    for (int i = 0; i < kMaxResumes && !p->fiber_->finished(); ++i) {
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
