// The remaining cells of the failure matrix (ds::resilience): producer
// crash (count repair + term exclusion), aggregator crash mid-protocol
// (re-election + release barrier), and restarted-rank rejoin (voluntary
// flow handback).
// Every scenario requires termination (a protocol hole deadlocks the test),
// exactly-once delivery across the membership change, and full coverage of
// everything the surviving producers sent.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "common/machine_helpers.hpp"
#include "core/channel.hpp"
#include "core/stream.hpp"
#include "mpi/datatype.hpp"
#include "mpi/rank.hpp"
#include "resilience/fault.hpp"

namespace ds {
namespace {

using mpi::Rank;
using mpi::SendBuf;
using stream::Channel;
using stream::ChannelConfig;
using stream::Stream;
using stream::StreamElement;

[[nodiscard]] std::uint64_t element_id(int producer, int i) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(producer))
          << 32) |
         static_cast<std::uint32_t>(i);
}

[[nodiscard]] bool all_unique(std::vector<std::uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

[[nodiscard]] std::set<std::uint64_t> union_of(
    const std::vector<std::vector<std::uint64_t>>& views) {
  std::set<std::uint64_t> seen;
  for (const auto& v : views) seen.insert(v.begin(), v.end());
  return seen;
}

TEST(FaultPlanValidation, InstallTimeChecksRejectBrokenSchedules) {
  // Satellite: a schedule that would be a silent no-op or undefined mid-run
  // behavior must fail at install time with a descriptive error.
  {
    sim::FaultPlan plan;  // crash of an out-of-world rank
    plan.crash(7, util::microseconds(10));
    EXPECT_THROW(plan.validate(4), std::invalid_argument);
  }
  {
    sim::FaultPlan plan;  // duplicate crash of the same rank
    plan.crash(1, util::microseconds(10)).crash(1, util::microseconds(20));
    EXPECT_THROW(plan.validate(4), std::invalid_argument);
  }
  {
    sim::FaultPlan plan;  // restart of a rank that never crashed
    plan.restart(2, util::microseconds(10));
    EXPECT_THROW(plan.validate(4), std::invalid_argument);
  }
  {
    sim::FaultPlan plan;  // crash -> restart -> crash again is legal
    plan.crash(1, util::microseconds(10))
        .restart(1, util::microseconds(20))
        .crash(1, util::microseconds(30));
    EXPECT_NO_THROW(plan.validate(4));
  }
  {
    sim::FaultPlan plan;  // a machine run performs the same validation
    plan.restart(0, util::microseconds(5));
    auto config = testing::tiny_machine(2);
    config.faults = plan;
    EXPECT_THROW(testing::run_program(config, [](Rank&) {}),
                 std::invalid_argument);
  }
}

TEST(FailureMatrix, ProducerCrashTreeTerminationStillCompletes) {
  // Directed spray with the counted-term protocol; producer 1 dies
  // mid-stream and never reports its counts. The aggregator waives the dead
  // producer's matrix row, announces, and the release barrier still
  // completes — a count hole here deadlocks every consumer.
  constexpr int kProducers = 2, kConsumers = 3, kEach = 60;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  config.faults.crash(/*producer 1=*/1, util::microseconds(40));
  std::vector<std::vector<std::uint64_t>> delivered(kConsumers);
  std::array<bool, kConsumers> done{};
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    cfg.checkpoint_interval = 8;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    const int me = ch.my_consumer_index(self);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(),
                              [&](const StreamElement& el) {
                                std::uint64_t id = 0;
                                std::memcpy(&id, el.data, sizeof id);
                                delivered[static_cast<std::size_t>(me)]
                                    .push_back(id);
                              });
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        self.compute(util::microseconds(2));  // crash lands mid-loop
        const std::uint64_t id = element_id(self.world_rank(), i);
        s.isend_to(self, i % kConsumers, SendBuf::of(&id, 1));
      }
      s.terminate(self);
    } else {
      s.operate(self);  // deadlocks if the dead producer's counts are waited on
      done[static_cast<std::size_t>(me)] = s.exhausted();
    }
  });
  for (int c = 0; c < kConsumers; ++c) {
    EXPECT_TRUE(done[static_cast<std::size_t>(c)]) << "consumer " << c;
    EXPECT_TRUE(all_unique(delivered[static_cast<std::size_t>(c)]));
  }
  // Everything the surviving producer sent arrived; the dead producer's
  // deliveries are a subset of what it managed to send.
  const auto seen = union_of(delivered);
  for (int i = 0; i < kEach; ++i)
    EXPECT_TRUE(seen.count(element_id(0, i))) << "lost survivor element " << i;
  for (const std::uint64_t id : seen)
    EXPECT_LT(static_cast<std::uint32_t>(id), static_cast<std::uint32_t>(kEach));
}

TEST(FailureMatrix, ProducerCrashBlockExcludedFromExpectedTerms) {
  // Block mapping: consumer 1's only producer dies before terminating. The
  // consumer must observe the crash and strike the dead producer from its
  // expected term count, or it waits forever on a term that cannot come.
  constexpr int kProducers = 2, kConsumers = 2, kEach = 60;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  config.faults.crash(/*producer 1=*/1, util::microseconds(40));
  std::vector<std::vector<std::uint64_t>> delivered(kConsumers);
  std::array<bool, kConsumers> done{};
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.checkpoint_interval = 8;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    const int me = ch.my_consumer_index(self);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(),
                              [&](const StreamElement& el) {
                                std::uint64_t id = 0;
                                std::memcpy(&id, el.data, sizeof id);
                                delivered[static_cast<std::size_t>(me)]
                                    .push_back(id);
                              });
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        self.compute(util::microseconds(2));
        const std::uint64_t id = element_id(self.world_rank(), i);
        s.isend(self, SendBuf::of(&id, 1));
      }
      s.terminate(self);
    } else {
      s.operate(self);
      done[static_cast<std::size_t>(me)] = s.exhausted();
    }
  });
  EXPECT_TRUE(done[0]);
  EXPECT_TRUE(done[1]);
  EXPECT_TRUE(all_unique(delivered[0]));
  EXPECT_TRUE(all_unique(delivered[1]));
  // Producer 0 (alive) delivered everything to its block consumer.
  std::set<std::uint64_t> c0(delivered[0].begin(), delivered[0].end());
  for (int i = 0; i < kEach; ++i)
    EXPECT_TRUE(c0.count(element_id(0, i))) << "lost element " << i;
}

TEST(FailureMatrix, AggregatorCrashMidProtocolReelectsAndReleases) {
  // The effective aggregator (consumer 0) dies while producers are still
  // streaming. Producers re-derive the aggregator (first live + active
  // consumer), re-send their counted terms to it, and the re-elected
  // aggregator runs announce + release from its own idempotent matrix.
  constexpr int kProducers = 2, kConsumers = 3, kEach = 60;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  config.faults.crash(/*consumer 0=*/kProducers, util::microseconds(80));
  std::vector<std::vector<std::uint64_t>> delivered(kConsumers);
  std::array<bool, kConsumers> done{};
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    cfg.checkpoint_interval = 8;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    const int me = ch.my_consumer_index(self);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(),
                              [&](const StreamElement& el) {
                                std::uint64_t id = 0;
                                std::memcpy(&id, el.data, sizeof id);
                                delivered[static_cast<std::size_t>(me)]
                                    .push_back(id);
                              });
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        self.compute(util::microseconds(2));
        const std::uint64_t id = element_id(self.world_rank(), i);
        s.isend_to(self, i % kConsumers, SendBuf::of(&id, 1));
      }
      s.terminate(self);  // blocks in the release wait across the re-election
    } else {
      s.operate(self);
      done[static_cast<std::size_t>(me)] = s.exhausted();
    }
  });
  EXPECT_TRUE(done[1]);
  EXPECT_TRUE(done[2]);
  EXPECT_TRUE(all_unique(delivered[1]));
  EXPECT_TRUE(all_unique(delivered[2]));
  // Nothing is lost: the dead aggregator's flows were adopted and replayed.
  const auto seen = union_of(delivered);
  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < kEach; ++i)
      EXPECT_TRUE(seen.count(element_id(p, i)))
          << "lost element " << p << ":" << i;
}

/// The aggregator (consumer 0) crashes between its announce and its
/// release: its durable point runs only once every announce-ack is in, and
/// computes for 50 us, and the crash lands in the middle of it. The
/// survivors then hold the count matrix only as the announced copy, which
/// they share with the dead aggregator's announce; the re-elected
/// aggregator must re-announce that shared copy and release from it, and
/// every pool slot the announces held comes back. Producers stream Directed,
/// each to one consumer, or, with `rotate`, over every consumer in turn.
void aggregator_crash_before_release(bool rotate) {
  constexpr int kProducers = 6, kConsumers = 3, kEach = 9;
  struct Outcome {
    std::vector<std::vector<std::uint64_t>> delivered{kConsumers};
    std::array<bool, kConsumers> done{};
    std::array<std::uint64_t, kConsumers> term_messages{};
    util::SimTime hook_at = 0;  ///< consumer 0 entered its durable point
    mpi::Machine::PoolStats pools{};
  };
  const auto run = [&](util::SimTime crash_at) {
    Outcome out;
    auto config = testing::tiny_machine(kProducers + kConsumers);
    if (crash_at > 0) config.faults.crash(/*consumer 0=*/kProducers, crash_at);
    mpi::Machine machine(config);
    machine.run([&](Rank& self) {
      const bool producer = self.world_rank() < kProducers;
      ChannelConfig cfg;
      cfg.mapping = ChannelConfig::Mapping::Directed;
      cfg.checkpoint_interval = 4;
      const Channel ch =
          Channel::create(self, self.world(), producer, !producer, cfg);
      const int me = ch.my_consumer_index(self);
      Stream s = Stream::attach(ch, mpi::Datatype::int64(),
                                [&](const StreamElement& el) {
                                  std::uint64_t id = 0;
                                  std::memcpy(&id, el.data, sizeof id);
                                  out.delivered[static_cast<std::size_t>(me)]
                                      .push_back(id);
                                });
      if (producer) {
        for (int i = 0; i < kEach; ++i) {
          const std::uint64_t id = element_id(self.world_rank(), i);
          s.isend_to(self, (self.world_rank() + (rotate ? i : 0)) % kConsumers,
                     SendBuf::of(&id, 1));
        }
        s.terminate(self);
        return;
      }
      s.set_durable_point([&] {
        if (me == 0) out.hook_at = self.now();
        self.compute(util::microseconds(50));
        s.ack_durable(self);
      });
      (void)s.operate(self);
      out.done[static_cast<std::size_t>(me)] = s.exhausted();
      out.term_messages[static_cast<std::size_t>(me)] = s.stats().term_messages;
    });
    out.pools = machine.pool_stats();
    return out;
  };

  const Outcome clean = run(0);
  ASSERT_GT(clean.hook_at, 0);
  EXPECT_TRUE(clean.done[0] && clean.done[1] && clean.done[2]);
  EXPECT_LT(clean.term_messages[1], static_cast<std::uint64_t>(kProducers));
  EXPECT_EQ(clean.pools.send.outstanding(), 0u);
  EXPECT_EQ(clean.pools.recv.outstanding(), 0u);

  const Outcome crashed = run(clean.hook_at + util::microseconds(25));
  EXPECT_EQ(crashed.hook_at, clean.hook_at);  // same schedule up to the crash
  EXPECT_FALSE(crashed.done[0]);
  EXPECT_TRUE(crashed.done[1]);
  EXPECT_TRUE(crashed.done[2]);
  // Consumer 1 was re-elected and released every producer itself.
  EXPECT_GE(crashed.term_messages[1], static_cast<std::uint64_t>(kProducers));
  EXPECT_TRUE(all_unique(crashed.delivered[1]));
  EXPECT_TRUE(all_unique(crashed.delivered[2]));
  const auto seen = union_of(crashed.delivered);
  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < kEach; ++i)
      EXPECT_TRUE(seen.count(element_id(p, i)))
          << "lost element " << p << ":" << i;
  EXPECT_EQ(crashed.pools.send.outstanding(), 0u);
  EXPECT_EQ(crashed.pools.recv.outstanding(), 0u);
}

TEST(FailureMatrix, AggregatorCrashBeforeReleaseTakesOverFromSparseCopy) {
  // One flow per producer: 6 of 18 cells are nonzero, so the shared cells
  // are smaller than the dense counts the wire carries.
  aggregator_crash_before_release(/*rotate=*/false);
}

TEST(FailureMatrix, AggregatorCrashBeforeReleaseTakesOverFromDenseCopy) {
  // Every producer rotates over every consumer: every cell is nonzero, so
  // the shared cells outweigh the dense counts the wire carries.
  aggregator_crash_before_release(/*rotate=*/true);
}

/// One resilient 4 x 2 stream with a crash of world rank `victim` at
/// `crash_at`: every producer paces 40 elements at 0.7 us (Directed sprays
/// them over both consumers), and consumers spend `per_element` on each.
/// Returns the per-consumer deliveries, and whether every surviving
/// consumer ended exhausted.
struct CrashRun {
  std::vector<std::vector<std::uint64_t>> delivered;
  bool survivors_exhausted = true;
};
CrashRun crash_run(ChannelConfig::Mapping mapping, int victim,
                   util::SimTime crash_at, util::SimTime per_element) {
  constexpr int kProducers = 4, kConsumers = 2, kEach = 40;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  config.faults.crash(victim, crash_at);
  CrashRun out;
  out.delivered.resize(kConsumers);
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.mapping = mapping;
    cfg.checkpoint_interval = 4;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    const int me = ch.my_consumer_index(self);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(),
                              [&](const StreamElement& el) {
                                std::uint64_t id = 0;
                                std::memcpy(&id, el.data, sizeof id);
                                out.delivered[static_cast<std::size_t>(me)]
                                    .push_back(id);
                                if (per_element > 0) self.compute(per_element);
                              });
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        self.compute(util::nanoseconds(700));
        const std::uint64_t id = element_id(self.world_rank(), i);
        if (mapping == ChannelConfig::Mapping::Directed)
          s.isend_to(self, (self.world_rank() + i) % kConsumers,
                     SendBuf::of(&id, 1));
        else
          s.isend(self, SendBuf::of(&id, 1));
      }
      s.terminate(self);
      return;
    }
    s.operate(self);
    if (!s.exhausted()) out.survivors_exhausted = false;
  });
  return out;
}

TEST(FailureMatrix, ProducerCrashedInsideItsReleaseWaitUnwinds) {
  // Producer 1 terminates at about 28 us and then waits for its release
  // while slow consumers drain; crashes land throughout that wait. A crash
  // that hits while the producer is mid-advance (charging a durability
  // ack's receive overhead) must still unwind it instead of leaving the
  // dead rank parked in the wait, which the engine reports as a deadlock.
  for (const auto mapping :
       {ChannelConfig::Mapping::Block, ChannelConfig::Mapping::Directed}) {
    for (int us = 40; us <= 80; us += 2) {
      SCOPED_TRACE(::testing::Message() << static_cast<int>(mapping) << " crash at "
                                      << us << " us");
      CrashRun run;
      ASSERT_NO_THROW(run = crash_run(mapping, /*producer 1=*/1,
                                      util::microseconds(us),
                                      util::microseconds(2)));
      EXPECT_TRUE(run.survivors_exhausted);
      EXPECT_TRUE(all_unique(run.delivered[0]));
      EXPECT_TRUE(all_unique(run.delivered[1]));
      const auto seen = union_of(run.delivered);
      for (const int p : {0, 2, 3})
        for (int i = 0; i < 40; ++i)
          EXPECT_TRUE(seen.count(element_id(p, i))) << p << ":" << i;
    }
  }
}

TEST(FailureMatrix, ConsumerCrashAfterTheReleaseNeedsNoAdoption) {
  // Fast consumers: the aggregator (consumer 0, world rank 4) releases the
  // channel, and crashes at 60-72 us, after the release but while consumer
  // 1 may still be draining. Once released no flow moves any more — the
  // producers retired their replay logs — so the survivor must not adopt
  // the dead aggregator's flows and wait on counts nobody can replay.
  for (int us = 60; us <= 72; us += 2) {
    SCOPED_TRACE(::testing::Message() << "crash at " << us << " us");
    CrashRun run;
    ASSERT_NO_THROW(run = crash_run(ChannelConfig::Mapping::Directed,
                                    /*consumer 0=*/4, util::microseconds(us),
                                    0));
    EXPECT_TRUE(run.survivors_exhausted);
    EXPECT_TRUE(all_unique(run.delivered[1]));
  }
}

TEST(FailureMatrix, RestartedConsumerRejoinsAndFlowsRebalanceBack) {
  // Crash consumer 1 mid-stream, restart it later: the respawned
  // incarnation attaches to the channel (no collective), producers observe
  // the membership epoch move, hand its flows back voluntarily, and the
  // cursor sync from the interim owner keeps delivery exactly-once across
  // all three views (survivor, dead incarnation, rejoined incarnation).
  static constexpr int kProducers = 2, kConsumers = 2, kEach = 120;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  config.faults.crash(/*consumer 1=*/3, util::microseconds(60))
      .restart(3, util::microseconds(120));
  // Views: [0] consumer 0, [1] consumer 1 incarnation 0, [2] incarnation 1.
  std::vector<std::vector<std::uint64_t>> delivered(3);
  std::uint32_t max_rebalances = 0;
  bool rejoined_exhausted = false, survivor_exhausted = false;
  std::uint64_t survivor_entries = 0;
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    const int inc = self.machine().incarnation(self.world_rank());
    ChannelConfig cfg;
    cfg.checkpoint_interval = 8;
    const Channel ch =
        inc > 0 ? Channel::attach(
                      self, self.world(),
                      [](int r) {
                        return static_cast<std::int8_t>(r < kProducers ? 1 : 2);
                      },
                      cfg)
                : Channel::create(self, self.world(), producer, !producer, cfg);
    const int me = ch.my_consumer_index(self);
    const std::size_t view = static_cast<std::size_t>(me + inc);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(),
                              [&](const StreamElement& el) {
                                std::uint64_t id = 0;
                                std::memcpy(&id, el.data, sizeof id);
                                delivered[view].push_back(id);
                              });
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        self.compute(util::microseconds(2));  // crash and rejoin land mid-loop
        const std::uint64_t id = element_id(self.world_rank(), i);
        s.isend(self, SendBuf::of(&id, 1));
      }
      s.terminate(self);
      max_rebalances = std::max(max_rebalances, s.stats().rebalances);
    } else {
      s.operate(self);
      if (me == 0) {
        survivor_exhausted = s.exhausted();
        survivor_entries = s.stats().dedup_entries;
      }
      if (me == 1 && inc > 0) rejoined_exhausted = s.exhausted();
    }
  });
  EXPECT_TRUE(survivor_exhausted);
  EXPECT_TRUE(rejoined_exhausted);
  // The voluntary handback happened (a failover alone would not count).
  EXPECT_GE(max_rebalances, 1u);
  // The rejoined incarnation actually got its flow back.
  EXPECT_FALSE(delivered[2].empty());
  // Dedup memory: answering the handback erased the survivor's cursor for
  // the adopted flow, leaving only its own flow's.
  EXPECT_EQ(survivor_entries, 1u);
  EXPECT_TRUE(all_unique(delivered[0]));
  EXPECT_TRUE(all_unique(delivered[2]));
  // The cursor sync fences the handback: what the interim owner processed
  // can never reach the rejoined incarnation again.
  std::set<std::uint64_t> interim(delivered[0].begin(), delivered[0].end());
  for (const std::uint64_t id : delivered[2])
    EXPECT_FALSE(interim.count(id)) << "duplicate across handback: " << id;
  // Full coverage across all views.
  const auto seen = union_of(delivered);
  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < kEach; ++i)
      EXPECT_TRUE(seen.count(element_id(p, i)))
          << "lost element " << p << ":" << i;
}

}  // namespace
}  // namespace ds
