// Fault-injection mechanics (ds::resilience layer 1): fail-stop semantics,
// mailbox draining, pool-slot accounting, and restart.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/machine_helpers.hpp"
#include "mpi/rank.hpp"
#include "resilience/fault.hpp"

namespace ds {
namespace {

using mpi::Rank;
using mpi::RecvBuf;
using mpi::SendBuf;

TEST(FaultPlan, BuilderValidates) {
  sim::FaultPlan plan;
  plan.crash(3, util::milliseconds(1)).restart(3, util::milliseconds(2));
  EXPECT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.first_crash_at(3), util::milliseconds(1));
  EXPECT_EQ(plan.first_crash_at(0), -1);
  EXPECT_THROW(plan.crash(-1, 0), std::invalid_argument);
}

TEST(FaultInjection, CrashUnwindsAtNextInteraction) {
  // The compute the crash lands in runs to its end and throws RankFailure
  // instead of returning: the victim never executes code past it, and the
  // machine run still completes.
  auto config = testing::tiny_machine(2);
  config.faults.crash(1, util::microseconds(50));
  bool before = false, after = false;
  testing::run_program(config, [&](Rank& self) {
    if (self.world_rank() == 0) return;
    self.compute(util::microseconds(10));
    before = true;
    self.compute(util::microseconds(100));  // crash lands inside this segment
    after = true;
  });
  EXPECT_TRUE(before);
  EXPECT_FALSE(after);
}

TEST(FaultInjection, PostedReceiveFailsAndMailboxDrains) {
  // Victim blocks in recv; the crash completes the posted receive with
  // Status::failed, the fiber unwinds, and messages arriving afterwards are
  // dropped instead of accumulating in a dead mailbox.
  auto config = testing::tiny_machine(2);
  config.faults.crash(1, util::microseconds(50));
  bool victim_got_data = false;
  mpi::Machine machine(config);
  machine.run([&](Rank& self) {
    if (self.world_rank() == 1) {
      int value = 0;
      self.recv(self.world(), 0, 7, RecvBuf::of(&value, 1));
      victim_got_data = true;  // unreachable: recv fails at the crash
      return;
    }
    self.compute(util::microseconds(200));  // send only after the crash
    const int v = 42;
    for (int i = 0; i < 8; ++i) self.send(self.world(), 1, 7, SendBuf::of(&v, 1));
  });
  EXPECT_FALSE(victim_got_data);
  EXPECT_TRUE(machine.rank_failed(1));
  EXPECT_EQ(machine.membership_epoch(), 1u);
  // No pooled operation slot may stay pinned after the run drains.
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

TEST(FaultInjection, InFlightTrafficToDeadRankDoesNotLeakPoolSlots) {
  // A burst already in flight toward the victim when it dies is dropped on
  // arrival; every pooled op (including rendezvous-class) recycles.
  auto config = testing::tiny_machine(4);
  config.faults.crash(2, util::microseconds(30));
  mpi::Machine machine(config);
  std::vector<std::byte> big(256 * 1024);  // rendezvous-class payload
  machine.run([&](Rank& self) {
    if (self.world_rank() == 2) {
      // Victim consumes a little, then blocks forever (until killed).
      int v = 0;
      self.recv(self.world(), mpi::kAnySource, 5, RecvBuf::of(&v, 1));
      self.recv(self.world(), mpi::kAnySource, 5, RecvBuf::of(&v, 1));
      return;
    }
    const int v = 7;
    self.send(self.world(), 2, 5, SendBuf::of(&v, 1));
    // Eager and rendezvous sends racing the crash: isend and move on.
    auto r1 = self.isend(self.world(), 2, 5, SendBuf::of(&v, 1));
    auto r2 = self.isend(self.world(), 2, 5,
                         SendBuf{big.data(), big.size()});
    self.wait(r1);
    self.wait(r2);  // must complete even though the peer died
  });
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

TEST(FaultInjection, RestartRespawnsWithBumpedIncarnation) {
  auto config = testing::tiny_machine(2);
  config.faults.crash(1, util::microseconds(50));
  config.faults.restart(1, util::microseconds(200));
  int incarnations_seen = 0;
  bool exchanged_after_restart = false;
  mpi::Machine machine(config);
  machine.run([&](Rank& self) {
    if (self.world_rank() == 0) {
      int v = 0;
      self.recv(self.world(), 1, 9, RecvBuf::of(&v, 1));
      exchanged_after_restart = v == 1;
      return;
    }
    ++incarnations_seen;
    if (self.incarnation() == 0) {
      // First life: blocks until the crash unwinds it.
      int v = 0;
      self.recv(self.world(), 0, 9, RecvBuf::of(&v, 1));
      return;
    }
    const int v = self.incarnation();
    self.send(self.world(), 0, 9, SendBuf::of(&v, 1));
  });
  EXPECT_EQ(incarnations_seen, 2);
  EXPECT_TRUE(exchanged_after_restart);
  EXPECT_FALSE(machine.rank_failed(1));
  EXPECT_EQ(machine.incarnation(1), 1);
}

/// Two ranks; rank 1 is crashed at 10 us, inside its first compute, and
/// restarted at 50 us.
mpi::MachineConfig crash_and_restart_inside_a_compute(bool trace) {
  auto config = testing::tiny_machine(2);
  config.faults.crash(1, util::microseconds(10))
      .restart(1, util::microseconds(50));
  config.observability.trace = trace;
  return config;
}

TEST(FaultInjection, CrashedIncarnationNeverRunsAgain) {
  // The crashed incarnation's compute must not return at its end (1 ms): it
  // would run on beside its successor and enter the barrier a second time
  // for rank 1, which no barrier survives.
  mpi::Machine machine(crash_and_restart_inside_a_compute(false));
  int rank1_barrier_entries = 0;
  const util::SimTime makespan = machine.run([&](Rank& self) {
    self.compute(self.world_rank() == 0 ? util::milliseconds(2)
                                        : util::milliseconds(1));
    if (self.world_rank() == 1) ++rank1_barrier_entries;
    (void)self.barrier(self.world());
  });
  EXPECT_EQ(rank1_barrier_entries, 1);
  EXPECT_EQ(makespan, 2'000'356);
}

/// The end of the span "second", recorded by rank 1's restarted incarnation
/// with tracing on, and the trace's dropped ends. Rank 1's first incarnation
/// runs `first` and is crashed inside it.
std::pair<util::SimTime, std::uint64_t> second_span_after_restart(
    const std::function<void(Rank&)>& first) {
  mpi::Machine machine(crash_and_restart_inside_a_compute(true));
  machine.run([&](Rank& self) {
    if (self.incarnation() > 0)
      self.compute(util::milliseconds(2), "second");
    else
      first(self);
  });
  const obs::Recorder& trace = *machine.engine().trace();
  const auto& spans = trace.intervals();
  const auto second =
      std::find_if(spans.begin(), spans.end(), [](const obs::Span& s) {
        return s.rank == 1 && s.label == "second";
      });
  return {second == spans.end() ? -1 : second->end, trace.dropped_ends()};
}

TEST(FaultInjection, RestartedRankKeepsOneTraceTimeline) {
  // Both incarnations record on rank 1's track. The crashed one closes
  // nothing after its crash, whether it unwinds at the end of a compute or
  // when a blocking send completes after the restart, so the successor's
  // span keeps its own end.
  const std::pair<util::SimTime, std::uint64_t> intact{
      util::microseconds(2050), 0};
  EXPECT_EQ(second_span_after_restart([](Rank& self) {
              if (self.world_rank() == 1)
                self.compute(util::milliseconds(1), "first");
            }),
            intact);
  std::vector<std::byte> big(256 * 1024);  // rendezvous-class payload
  EXPECT_EQ(second_span_after_restart([&](Rank& self) {
              if (self.world_rank() == 1) {
                self.send(self.world(), 0, 3, SendBuf{big.data(), big.size()});
                return;
              }
              self.compute(util::milliseconds(1));
              self.recv(self.world(), 1, 3, RecvBuf{big.data(), big.size()});
            }),
            intact);
}

}  // namespace
}  // namespace ds
