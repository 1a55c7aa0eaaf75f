// Failure-aware collectives: a rank crash at ANY virtual time — including
// inside a collective's wire rounds — never hangs the survivors. Each suite
// below measures a collective's fault-free makespan, then sweeps a crash
// across a dense grid of virtual times covering every round window and
// asserts the survivors complete (with a failed outcome when they observed
// the crash, with correct data when they finished clean first — ULFM
// semantics), and that no pooled operation slot leaks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/machine_helpers.hpp"
#include "core/channel.hpp"
#include "mpi/io.hpp"
#include "mpi/rank.hpp"
#include "resilience/fault.hpp"

namespace ds {
namespace {

using mpi::AgreeResult;
using mpi::AllgatherResult;
using mpi::Rank;
using mpi::RecvBuf;
using mpi::SendBuf;
using mpi::Status;

/// Crash instants covering [1ns, makespan]: every wire round of a
/// collective spans >= network latency (1.3us), so `kSweepPoints` evenly
/// spaced instants across the fault-free makespan land several crashes
/// inside every round window, plus the boundaries.
constexpr int kSweepPoints = 16;

std::vector<util::SimTime> crash_grid(util::SimTime makespan) {
  std::vector<util::SimTime> grid;
  grid.push_back(util::nanoseconds(1));
  for (int i = 1; i <= kSweepPoints; ++i)
    grid.push_back(std::max<util::SimTime>(
        1, makespan * i / kSweepPoints));
  return grid;
}

/// Run `program` with `victim` crashed at `at`; assert the run completes and
/// drains both op pools (the collective state machines released every slot
/// even though the schedule was cut by the crash) and leaves no allgather
/// result entry behind (the victim lets go of its entry as it unwinds).
void run_with_crash(int world, int victim, util::SimTime at,
                    const std::function<void(Rank&)>& program) {
  auto config = testing::tiny_machine(world);
  config.faults.crash(victim, at);
  mpi::Machine machine(config);
  machine.run(program);
  EXPECT_TRUE(machine.rank_failed(victim));
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u) << "crash at " << at;
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u) << "crash at " << at;
  EXPECT_EQ(machine.exchange_count(), 0u) << "crash at " << at;
}

TEST(CollectivesFailure, BarrierSurvivesCrashAtEveryRound) {
  constexpr int kP = 8, kVictim = 3;
  const util::SimTime makespan = testing::run_program(
      testing::tiny_machine(kP), [](Rank& self) { self.barrier(self.world()); });
  for (const util::SimTime at : crash_grid(makespan)) {
    std::vector<int> completed(kP, 0);
    run_with_crash(kP, kVictim, at, [&](Rank& self) {
      (void)self.barrier(self.world());
      completed[static_cast<std::size_t>(self.world_rank())] = 1;
    });
    for (int r = 0; r < kP; ++r) {
      if (r != kVictim) {
        EXPECT_TRUE(completed[static_cast<std::size_t>(r)])
            << "rank " << r << " hung, crash at " << at;
      }
    }
  }
}

TEST(CollectivesFailure, BcastSurvivesCrashAtEveryRound) {
  constexpr int kP = 8, kRoot = 0, kVictim = 2;
  const util::SimTime makespan =
      testing::run_program(testing::tiny_machine(kP), [](Rank& self) {
        int v = self.world_rank() == kRoot ? 99 : -1;
        self.bcast(self.world(), kRoot, RecvBuf::of(&v, 1));
      });
  for (const util::SimTime at : crash_grid(makespan)) {
    run_with_crash(kP, kVictim, at, [&](Rank& self) {
      int v = self.world_rank() == kRoot ? 99 : -1;
      const Status st = self.bcast(self.world(), kRoot, RecvBuf::of(&v, 1));
      // ULFM outcome contract: data of a failed broadcast is undefined, but
      // a member that completed clean must hold the root's value.
      if (!st.failed) {
        EXPECT_EQ(v, 99) << "crash at " << at;
      }
    });
  }
}

TEST(CollectivesFailure, BcastRootCrashFailsEveryone) {
  // The root dies before contributing anything: every survivor must observe
  // a failed outcome (nobody can have the value), and nobody hangs.
  constexpr int kP = 8, kRoot = 0;
  std::vector<int> failed(kP, 0);
  run_with_crash(kP, kRoot, util::nanoseconds(1), [&](Rank& self) {
    int v = self.world_rank() == kRoot ? 99 : -1;
    const Status st = self.bcast(self.world(), kRoot, RecvBuf::of(&v, 1));
    failed[static_cast<std::size_t>(self.world_rank())] = st.failed ? 1 : 0;
  });
  for (int r = 1; r < kP; ++r)
    EXPECT_TRUE(failed[static_cast<std::size_t>(r)]) << "rank " << r;
}

TEST(CollectivesFailure, AllreduceSurvivesCrashAtEveryRound) {
  constexpr int kP = 8, kVictim = 5;
  const long long expected = kP * (kP + 1) / 2;
  const util::SimTime makespan =
      testing::run_program(testing::tiny_machine(kP), [](Rank& self) {
        const long long mine = self.world_rank() + 1;
        long long out = 0;
        self.allreduce(self.world(), SendBuf::of(&mine, 1), &out,
                       mpi::reduce_sum<long long>());
      });
  for (const util::SimTime at : crash_grid(makespan)) {
    run_with_crash(kP, kVictim, at, [&](Rank& self) {
      const long long mine = self.world_rank() + 1;
      long long out = 0;
      const Status st = self.allreduce(self.world(), SendBuf::of(&mine, 1),
                                       &out, mpi::reduce_sum<long long>());
      if (!st.failed) {
        EXPECT_EQ(out, expected) << "crash at " << at;
      }
    });
  }
}

TEST(CollectivesFailure, AllgathervSurvivesCrashAtEveryRound) {
  constexpr int kP = 8, kVictim = 6;
  const std::vector<std::size_t> counts(kP, sizeof(std::int32_t));
  // The same sweep drives allgatherv and its count-free allgather form.
  for (const bool with_counts : {true, false}) {
    const auto gather = [&](Rank& self, const std::int32_t& mine,
                            std::vector<std::int32_t>& out) {
      if (with_counts)
        return self.allgatherv(self.world(), SendBuf::of(&mine, 1), out.data(),
                               counts);
      const AllgatherResult gathered =
          self.allgather(self.world(), SendBuf::of(&mine, 1));
      for (std::size_t r = 0; r < out.size(); ++r)
        out[r] = gathered.at<std::int32_t>(r);
      return gathered.status;
    };
    const util::SimTime makespan =
        testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
          const std::int32_t mine = self.world_rank();
          std::vector<std::int32_t> out(kP, -1);
          (void)gather(self, mine, out);
        });
    for (const util::SimTime at : crash_grid(makespan)) {
      run_with_crash(kP, kVictim, at, [&](Rank& self) {
        const std::int32_t mine = self.world_rank();
        std::vector<std::int32_t> out(kP, -1);
        const Status st = gather(self, mine, out);
        if (!st.failed) {
          for (int r = 0; r < kP; ++r)
            EXPECT_EQ(out[static_cast<std::size_t>(r)], r)
                << (with_counts ? "allgatherv" : "allgather") << ", crash at "
                << at;
        }
      });
    }
  }
}

TEST(CollectivesFailure, AgreeSurvivorsAlwaysSeeTheSameResult) {
  // The whole point of agree(): no matter where mid-agreement the crash
  // lands — before the victim deposits, between deposit and freeze, after —
  // every survivor returns the exact same (value, survivors, failed) triple.
  constexpr int kP = 8, kVictim = 3;
  const util::SimTime makespan =
      testing::run_program(testing::tiny_machine(kP), [](Rank& self) {
        (void)self.agree(self.world(),
                         1ull << static_cast<unsigned>(self.world_rank()));
      });
  for (const util::SimTime at : crash_grid(makespan)) {
    std::vector<AgreeResult> results(kP);
    std::vector<int> completed(kP, 0);
    run_with_crash(kP, kVictim, at, [&](Rank& self) {
      const auto me = static_cast<std::size_t>(self.world_rank());
      results[me] = self.agree(
          self.world(), 1ull << static_cast<unsigned>(self.world_rank()));
      completed[me] = 1;
    });
    const AgreeResult* first = nullptr;
    for (int r = 0; r < kP; ++r) {
      if (r == kVictim) continue;
      const auto& res = results[static_cast<std::size_t>(r)];
      ASSERT_TRUE(completed[static_cast<std::size_t>(r)])
          << "rank " << r << " hung in agree, crash at " << at;
      // Every survivor's own bit made it in (it deposited before blocking).
      EXPECT_NE(res.value & (1ull << static_cast<unsigned>(r)), 0u);
      if (!first) {
        first = &res;
        continue;
      }
      EXPECT_EQ(res.value, first->value) << "crash at " << at;
      EXPECT_EQ(res.survivors, first->survivors) << "crash at " << at;
      EXPECT_EQ(res.failed, first->failed) << "crash at " << at;
    }
    ASSERT_NE(first, nullptr);
    // The victim is either in the agreed dead set (crash froze in) or the
    // agreement finished before the crash — never in both views.
    const bool victim_dead =
        std::find(first->failed.begin(), first->failed.end(), kVictim) !=
        first->failed.end();
    const bool victim_survivor = first->survivors.contains(kVictim);
    EXPECT_NE(victim_dead, victim_survivor) << "crash at " << at;
  }
}

TEST(CollectivesFailure, CleanAgreementSurvivorsAreTheCommGroup) {
  // Nobody died: every reader's survivor group is the communicator's own
  // group (interned, so equality is identity), on the world and on a split.
  constexpr int kP = 8;
  testing::run_program(testing::tiny_machine(kP), [](Rank& self) {
    const mpi::Comm half =
        self.split(self.world(), self.world_rank() % 2, self.world_rank());
    for (const mpi::Comm* comm : {&self.world(), &half}) {
      const AgreeResult res = self.agree(*comm, 1);
      EXPECT_TRUE(res.clean());
      EXPECT_EQ(res.value, 1u);
      EXPECT_TRUE(res.survivors == comm->group());
      EXPECT_EQ(res.survivors.size(), comm->size());
    }
  });
}

TEST(CollectivesFailure, ChannelCreateRebuildsOverSurvivorsAtEveryCrashTime) {
  // A crash anywhere inside Channel::create's role exchange or agreement:
  // the survivors re-derive membership from the agreed failure view, retry,
  // and all end up in one channel spanning exactly the survivors.
  constexpr int kP = 6, kVictim = 4;  // ranks 0-2 produce, 3-5 consume
  const auto program_body = [](Rank& self, stream::Channel* out) {
    stream::ChannelConfig cfg;
    cfg.channel_id = 7;
    auto ch = stream::Channel::create(self, self.world(),
                                      /*is_producer=*/self.world_rank() < 3,
                                      /*is_consumer=*/self.world_rank() >= 3,
                                      cfg);
    if (out) *out = ch;
    ch.free(self);
  };
  const util::SimTime makespan = testing::run_program(
      testing::tiny_machine(kP),
      [&](Rank& self) { program_body(self, nullptr); });
  for (const util::SimTime at : crash_grid(makespan)) {
    std::vector<stream::Channel> built(kP);
    run_with_crash(kP, kVictim, at, [&](Rank& self) {
      program_body(self, &built[static_cast<std::size_t>(self.world_rank())]);
    });
    for (int r = 0; r < kP; ++r) {
      if (r == kVictim) continue;
      const auto& ch = built[static_cast<std::size_t>(r)];
      ASSERT_TRUE(ch.valid()) << "rank " << r << ", crash at " << at;
      EXPECT_EQ(ch.producer_count(), 3) << "crash at " << at;
      // Either the create finished before the crash (victim included) or it
      // rebuilt over the survivors (victim excluded) — consistently.
      EXPECT_EQ(ch.consumer_count(),
                built[0].consumer_count())
          << "crash at " << at;
      EXPECT_GE(ch.consumer_count(), 2) << "crash at " << at;
      EXPECT_LE(ch.consumer_count(), 3) << "crash at " << at;
    }
  }
}

TEST(CollectivesFailure, ChannelCreateSurvivesProducerCrashDuringSetup) {
  // crash_during_setup lands the crash one nanosecond in — strictly inside
  // the first wire round of the role exchange.
  constexpr int kP = 6, kVictim = 1;
  auto config = testing::tiny_machine(kP);
  config.faults.crash_during_setup(kVictim);
  std::vector<int> producer_counts(kP, -1);
  mpi::Machine machine(config);
  machine.run([&](Rank& self) {
    auto ch = stream::Channel::create(self, self.world(),
                                      self.world_rank() < 3,
                                      self.world_rank() >= 3);
    producer_counts[static_cast<std::size_t>(self.world_rank())] =
        ch.producer_count();
    ch.free(self);
  });
  for (int r = 0; r < kP; ++r) {
    if (r == kVictim) continue;
    EXPECT_EQ(producer_counts[static_cast<std::size_t>(r)], 2) << "rank " << r;
  }
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

TEST(CollectivesFailure, ChannelFreeDrainsDespiteDeadMember) {
  // A member dies mid-run; the others still tear the channel down — over
  // the failure-aware quiesce barrier (plain) or the agreement drain
  // (resilient) — instead of deadlocking on the dead member's contribution.
  for (const bool resilient : {false, true}) {
    constexpr int kP = 4, kVictim = 2;
    auto config = testing::tiny_machine(kP);
    config.faults.crash(kVictim, util::milliseconds(1));
    std::vector<int> freed(kP, 0);
    mpi::Machine machine(config);
    machine.run([&](Rank& self) {
      stream::ChannelConfig cfg;
      if (resilient) cfg.checkpoint_interval = 8;
      auto ch = stream::Channel::create(self, self.world(),
                                        self.world_rank() < 2,
                                        self.world_rank() >= 2, cfg);
      self.compute(util::milliseconds(2));  // the victim dies in here
      ch.free(self);
      freed[static_cast<std::size_t>(self.world_rank())] = 1;
    });
    for (int r = 0; r < kP; ++r) {
      if (r == kVictim) continue;
      EXPECT_TRUE(freed[static_cast<std::size_t>(r)])
          << "rank " << r << ", resilient=" << resilient;
    }
    EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
    EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
  }
}

TEST(CollectivesFailure, IoSetViewSurvivesMetadataRankCrash) {
  // Rank 0 (the member that refreshes the file metadata) dies during the
  // view definition: survivors observe a failed outcome at the barrier.
  constexpr int kP = 4;
  auto config = testing::tiny_machine(kP);
  config.faults.crash_during_setup(0);
  std::vector<int> outcome(kP, -1);
  mpi::Machine machine(config);
  machine.run([&](Rank& self) {
    mpi::File file(self.machine(), self.world(), "view.dat");
    const Status st = file.set_view(self);
    outcome[static_cast<std::size_t>(self.world_rank())] = st.failed ? 1 : 0;
  });
  for (int r = 1; r < kP; ++r)
    EXPECT_EQ(outcome[static_cast<std::size_t>(r)], 1) << "rank " << r;
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

TEST(CollectivesFailure, IoWriteAllSurvivesCrashAtEveryPhase) {
  // Collective write with one aggregator per pair: sweep a crash of a
  // non-aggregator across the whole collective (size exchange, block
  // shipping, write, barrier). Survivors always return.
  constexpr int kP = 4, kVictim = 3;
  const auto body = [](Rank& self, std::vector<int>* outcome) {
    mpi::File file(self.machine(), self.world(), "all.dat",
                   /*aggregator_stride=*/2);
    std::vector<std::byte> block(64 * (1 + self.world_rank()));
    const Status st = file.write_all(self, SendBuf{block.data(), block.size()});
    if (outcome)
      (*outcome)[static_cast<std::size_t>(self.world_rank())] = st.failed;
  };
  const util::SimTime makespan = testing::run_program(
      testing::tiny_machine(kP), [&](Rank& self) { body(self, nullptr); });
  for (const util::SimTime at : crash_grid(makespan)) {
    std::vector<int> outcome(kP, -1);
    run_with_crash(kP, kVictim, at,
                   [&](Rank& self) { body(self, &outcome); });
    for (int r = 0; r < kP; ++r) {
      if (r != kVictim) {
        EXPECT_NE(outcome[static_cast<std::size_t>(r)], -1)
            << "rank " << r << " hung, crash at " << at;
      }
    }
  }
}

TEST(CollectivesFailure, OnlyCommunicatorsHoldingADeadRankReportIt) {
  // Rank 3 crashes at 10 us and restarts at 50 us. Between the two, a
  // barrier over the other three completes clean and one over all four
  // reports the failure; after the restart, a barrier over all four
  // (with the new incarnation) completes clean again.
  constexpr int kP = 4, kVictim = 3;
  auto config = testing::tiny_machine(kP);
  config.faults.crash(kVictim, util::microseconds(10))
      .restart(kVictim, util::microseconds(50));
  mpi::Machine machine(config);
  const auto comm = [&machine](std::uint64_t salt, std::vector<int> ranks) {
    return mpi::Comm(
        mpi::Machine::derive_context(machine.world().context(), 0xDEAD, salt),
        mpi::Group(std::move(ranks)));
  };
  const mpi::Comm without = comm(1, {0, 1, 2});
  const mpi::Comm with = comm(2, {0, 1, 2, 3});
  const mpi::Comm rejoined = comm(3, {0, 1, 2, 3});
  std::vector<int> clean_without(kP, -1), clean_with(kP, -1),
      clean_rejoined(kP, -1);
  std::vector<int> dead_while_down;
  machine.run([&](Rank& self) {
    const auto me = static_cast<std::size_t>(self.world_rank());
    if (self.world_rank() == kVictim) {
      if (self.incarnation() == 0) {
        self.compute(util::microseconds(20));  // crashed at 10 us
        self.compute(util::microseconds(1));   // observes it and unwinds
        ADD_FAILURE() << "the crashed incarnation ran on";
        return;
      }
    } else {
      self.compute(util::microseconds(20));
      if (me == 0) dead_while_down = self.machine().dead_ranks();
      clean_without[me] = !self.barrier(without).failed;
      clean_with[me] = !self.barrier(with).failed;
      self.compute(util::microseconds(100));
    }
    clean_rejoined[me] = !self.barrier(rejoined).failed;
  });
  EXPECT_EQ(dead_while_down, std::vector<int>{kVictim});
  EXPECT_TRUE(machine.dead_ranks().empty());
  EXPECT_FALSE(machine.rank_failed(kVictim));
  for (int r = 0; r < kP; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (r != kVictim) {
      EXPECT_EQ(clean_without[i], 1) << "rank " << r;
      EXPECT_EQ(clean_with[i], 0) << "rank " << r;
    }
    EXPECT_EQ(clean_rejoined[i], 1) << "rank " << r;
  }
}

TEST(CollectivesFailure, CollectiveTimeoutWatchdogAbortsWedgedCollective) {
  // A member that simply never shows up (no crash — the failure record
  // stays empty, so failure-awareness cannot release the others) trips the
  // watchdog in bounded virtual time instead of wedging the run.
  auto config = testing::tiny_machine(2);
  config.collective_timeout = util::milliseconds(1);
  mpi::Machine machine(config);
  EXPECT_THROW(machine.run([](Rank& self) {
                 if (self.world_rank() == 1)
                   self.compute(util::seconds_i(1));  // far past the budget
                 self.barrier(self.world());
               }),
               mpi::CollectiveTimeout);
}

TEST(CollectivesFailure, AbortedRunUnwindsEverySuspendedRank) {
  // The watchdog aborts the run while every rank is suspended (two in the
  // barrier, one in a long compute). Before the exception leaves
  // Machine::run each fiber is unwound, so what the rank stacks own is
  // destroyed instead of being discarded with the stacks.
  auto config = testing::tiny_machine(3);
  config.collective_timeout = util::milliseconds(1);
  struct Guard {
    int* destroyed;
    ~Guard() { ++*destroyed; }
  };
  int destroyed = 0;
  mpi::Machine machine(config);
  EXPECT_THROW(machine.run([&](Rank& self) {
                 const Guard guard{&destroyed};
                 if (self.world_rank() == 2)
                   self.compute(util::seconds_i(1));  // far past the budget
                 self.barrier(self.world());
               }),
               mpi::CollectiveTimeout);
  EXPECT_EQ(destroyed, 3);
}

TEST(CollectivesFailure, CollectiveTimeoutSilentOnFailureAwareCompletion) {
  // A crash-released collective completes (failed) well inside the budget:
  // the armed watchdog must not fire afterwards.
  auto config = testing::tiny_machine(4);
  config.collective_timeout = util::milliseconds(10);
  config.faults.crash(2, util::microseconds(5));
  std::vector<int> done(4, 0);
  mpi::Machine machine(config);
  machine.run([&](Rank& self) {
    (void)self.barrier(self.world());
    done[static_cast<std::size_t>(self.world_rank())] = 1;
  });
  for (int r = 0; r < 4; ++r)
    if (r != 2) {
      EXPECT_TRUE(done[static_cast<std::size_t>(r)]);
    }
}

TEST(CollectivesFailure, FaultPlanRejectsCrashAtTimeZero) {
  sim::FaultPlan plan;
  plan.crash(1, 0);
  EXPECT_THROW(plan.validate(4), std::invalid_argument);
  // And through the machine, where validation actually runs.
  auto config = testing::tiny_machine(2);
  config.faults.crash(1, 0);
  mpi::Machine machine(config);
  EXPECT_THROW(machine.run([](Rank&) {}), std::invalid_argument);
}

TEST(CollectivesFailure, CrashDuringSetupSchedulesEarliestUsefulCrash) {
  sim::FaultPlan plan;
  plan.crash_during_setup(2);
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.first_crash_at(2), util::nanoseconds(1));
  plan.validate(4);  // one nanosecond is past the t=0 rejection
}

}  // namespace
}  // namespace ds
