#include "resilience/fault.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace ds::sim {

namespace {
void require_rank(int rank, const char* who) {
  if (rank < 0) throw std::invalid_argument(std::string(who) + ": negative rank");
}
}  // namespace

FaultPlan& FaultPlan::crash(int rank, util::SimTime at) {
  require_rank(rank, "FaultPlan::crash");
  events.push_back(FaultEvent{FaultEvent::Kind::RankCrash, at, rank});
  return *this;
}

FaultPlan& FaultPlan::crash_during_setup(int rank) {
  // One nanosecond of virtual time: after the program fibers have started
  // (a t=0 crash is rejected by validate), but well inside the first wire
  // round of any setup collective — network latency alone is three orders
  // of magnitude larger.
  return crash(rank, util::nanoseconds(1));
}

FaultPlan& FaultPlan::restart(int rank, util::SimTime at) {
  require_rank(rank, "FaultPlan::restart");
  events.push_back(FaultEvent{FaultEvent::Kind::RankRestart, at, rank});
  return *this;
}

void FaultPlan::validate(int world_size) const {
  // Replay the schedule in virtual-time order (stable on ties: insertion
  // order, matching the engine's deterministic tie-break) and track which
  // ranks are down at each point.
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return events[a].at < events[b].at;
  });
  std::vector<std::uint8_t> down(static_cast<std::size_t>(world_size), 0);
  for (const std::size_t i : order) {
    const FaultEvent& ev = events[i];
    if (ev.rank < 0 || ev.rank >= world_size)
      throw std::invalid_argument(
          "FaultPlan: event at t=" + std::to_string(ev.at) + " targets rank " +
          std::to_string(ev.rank) + ", outside world of " +
          std::to_string(world_size));
    auto& d = down[static_cast<std::size_t>(ev.rank)];
    switch (ev.kind) {
      case FaultEvent::Kind::RankCrash:
        if (ev.at == 0)
          throw std::invalid_argument(
              "FaultPlan: crash of rank " + std::to_string(ev.rank) +
              " at exactly t=0 — the rank would be dead before its program "
              "fiber ever runs, which silently tests nothing. Use "
              "crash_during_setup(rank) for the earliest useful crash, or "
              "shrink the world instead.");
        if (d != 0)
          throw std::invalid_argument(
              "FaultPlan: duplicate crash of rank " + std::to_string(ev.rank) +
              " at t=" + std::to_string(ev.at) +
              " (already down; schedule a restart in between)");
        d = 1;
        break;
      case FaultEvent::Kind::RankRestart:
        if (d == 0)
          throw std::invalid_argument(
              "FaultPlan: restart of rank " + std::to_string(ev.rank) +
              " at t=" + std::to_string(ev.at) +
              " which is not down (no earlier crash)");
        d = 0;
        break;
    }
  }
}

util::SimTime FaultPlan::first_crash_at(int rank) const noexcept {
  util::SimTime best = -1;
  for (const FaultEvent& ev : events)
    if (ev.kind == FaultEvent::Kind::RankCrash && ev.rank == rank &&
        (best < 0 || ev.at < best))
      best = ev.at;
  return best;
}

}  // namespace ds::sim
