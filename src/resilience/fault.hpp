// Fault injection for the simulated machine (ds::resilience, layer 1).
//
// The exascale-readiness literature ranks resilience as a top unmet
// requirement: at full machine scale the mean time between component
// failures drops below the runtime of a single job, so an application that
// cannot survive a rank loss cannot finish. This module gives the simulator
// a deterministic fault model to measure that against:
//
//  * rank crash   — fail-stop: the rank takes no further action. Its fiber
//    is killed (sim::Engine::kill): the wait it is in ends when it would
//    have ended — a compute runs to its end — and throws mpi::RankFailure
//    instead of returning, so the fiber unwinds. Its mailbox is drained,
//    its posted receives complete with Status::failed, and messages
//    addressed to it are dropped on arrival. Pooled operation slots are
//    released, never leaked.
//  * rank restart — the machine respawns the program fiber for a previously
//    crashed rank; Rank::incarnation() tells restarted code apart. The
//    crashed incarnation stays killed, so it never runs beside its
//    successor.
//
// Both wake every live rank's fiber, so protocol loops blocked on
// membership (credit, term and agreement waits) re-check their condition
// without registering for it.
//
// Slow ranks and links are not faults here: load imbalance (OS noise,
// workload skew) is sim::NoiseModel's job.
//
// A FaultPlan is a schedule of such events, installed via
// mpi::MachineConfig::faults and executed by the engine at exact virtual
// times — runs remain pure functions of (program, seed, plan).
//
// Collectives are failure-aware: a crash that lands while surviving ranks
// are inside a collective with the victim (including the role exchange in
// Channel::create, communicator splits, and collective IO) completes on
// every survivor with Status::failed instead of deadlocking — a message
// from a dead peer is satisfied by the failure record. Survivors then
// resolve a consistent view with Rank::agree and rebuild over the agreed
// membership (Channel::create retries internally). Crashes may therefore be
// scheduled at any virtual time t > 0, including inside setup and teardown;
// the stream failover protocol (core/stream.hpp) recovers crashes observed
// while producers are active.
#pragma once

#include <vector>

#include "util/time.hpp"

namespace ds::sim {

struct FaultEvent {
  enum class Kind { RankCrash, RankRestart };
  Kind kind = Kind::RankCrash;
  util::SimTime at = 0;  ///< absolute virtual time
  int rank = -1;         ///< world rank the event targets
};

/// A deterministic schedule of fault events (builder-style).
struct FaultPlan {
  std::vector<FaultEvent> events;

  FaultPlan& crash(int rank, util::SimTime at);
  /// Crash `rank` inside the program's setup collectives: the first role
  /// exchange of a Channel::create (or any other setup collective) spans
  /// several wire rounds from t=0, so a crash at one nanosecond of virtual
  /// time lands mid-protocol. Exercises the failure-aware setup path.
  FaultPlan& crash_during_setup(int rank);
  FaultPlan& restart(int rank, util::SimTime at);

  [[nodiscard]] bool empty() const noexcept { return events.empty(); }
  /// First crash scheduled for `rank`, or -1 when none.
  [[nodiscard]] util::SimTime first_crash_at(int rank) const noexcept;

  /// Whole-schedule validation, run at install time (Machine::run) when the
  /// world size is known. Replays the schedule in virtual-time order and
  /// throws std::invalid_argument with a descriptive message for plans that
  /// would otherwise be silent no-ops or undefined mid-run behavior:
  ///  * any event addressing a rank outside [0, world_size)
  ///  * a crash at exactly t=0 (the rank would die before its program fiber
  ///    ever runs — crash_during_setup schedules the earliest useful crash)
  ///  * a crash of a rank that is already down at that time
  ///  * a restart of a rank that is not down at that time
  void validate(int world_size) const;
};

}  // namespace ds::sim
