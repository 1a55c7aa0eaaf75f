// Stream epochs + consumer failover, end to end at the stream layer
// (ds::resilience layer 2/3): exactly-once delivery across an injected
// consumer crash, bounded replay, termination repair under Block and
// Directed (tree) mappings, and recovery from a credit-blocked producer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/machine_helpers.hpp"
#include "core/channel.hpp"
#include "core/stream.hpp"
#include "mpi/datatype.hpp"
#include "mpi/rank.hpp"
#include "resilience/failover.hpp"

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

/// True when `ids` contains no repeated element.
[[nodiscard]] bool all_unique(std::vector<std::uint64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

TEST(StreamFailover, BlockMappingSurvivorDeliversExactlyOnce) {
  // 2 producers block-map onto 2 consumers; consumer 1 (world rank 3) is
  // crashed mid-stream. Its producer rebinds to consumer 0, replays the
  // undurable tail, and the union of deliveries covers every element while
  // the survivor never sees one twice.
  constexpr int kProducers = 2, kConsumers = 2, kEach = 40;
  constexpr std::uint32_t kInterval = 4;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  config.faults.crash(/*world rank of consumer 1=*/3, util::microseconds(40));
  std::vector<std::vector<std::uint64_t>> delivered(kConsumers);
  std::uint64_t survivor_dupes_filtered = 0;
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.checkpoint_interval = kInterval;
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
        self.compute(util::microseconds(2));  // paced: the crash lands mid-run
        const std::uint64_t id = element_id(self.world_rank(), i);
        s.isend(self, SendBuf::of(&id, 1));
      }
      s.terminate(self);
    } else {
      s.operate(self);
      if (me == 0) survivor_dupes_filtered = s.stats().duplicates_dropped;
    }
  });

  // Survivor exactly-once: no id reaches consumer 0's operator twice.
  EXPECT_TRUE(all_unique(delivered[0]));
  // Coverage: everything producer 0 sent lands at consumer 0; everything
  // producer 1 sent lands at consumer 1 (before the crash) or consumer 0
  // (replayed / rerouted after it).
  std::set<std::uint64_t> seen(delivered[0].begin(), delivered[0].end());
  seen.insert(delivered[1].begin(), delivered[1].end());
  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < kEach; ++i)
      EXPECT_TRUE(seen.count(element_id(p, i))) << "lost element " << p << ":" << i;
  // Bounded replay overlap: only the dead consumer's undurable tail can be
  // seen by both consumers — at most two epochs' worth (one open epoch plus
  // one whose ack could still be in flight at the rebind).
  std::vector<std::uint64_t> overlap;
  std::set<std::uint64_t> dead(delivered[1].begin(), delivered[1].end());
  for (const std::uint64_t id : delivered[0])
    if (dead.count(id)) overlap.push_back(id);
  EXPECT_LE(overlap.size(), 2u * kInterval);
  // The dedup filter absorbed any replayed-but-durable prefix silently.
  (void)survivor_dupes_filtered;  // informational; app-level view is above
}

TEST(StreamFailover, ACrashDoesNotCutASurvivorsComputeShort) {
  // One producer (world rank 0) feeds consumer 0 (rank 1); consumer 1
  // (rank 2) crashes at 200 us, after consumer 0 left operate() for a
  // 500 us compute. The crash may wake the survivor's fiber to re-check
  // membership, but a compute is busy time and runs to its end.
  constexpr int kEach = 8;
  auto config = testing::tiny_machine(3);
  config.faults.crash(2, util::microseconds(200));
  util::SimTime computed = -1;
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.checkpoint_interval = 4;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(),
                              [](const StreamElement&) {});
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        self.compute(util::microseconds(2));
        const std::uint64_t id = element_id(0, i);
        s.isend(self, SendBuf::of(&id, 1));
      }
      s.terminate(self);
      return;
    }
    s.operate(self);
    if (self.world_rank() != 1) return;
    const util::SimTime start = self.now();
    self.compute(util::microseconds(500));
    computed = self.now() - start;
  });
  EXPECT_EQ(computed, util::microseconds(500));
}

TEST(StreamFailover, DirectedTreeRepairsAnnouncedCountsAndExhausts) {
  // Directed spray over 3 consumers with tree termination; consumer 2 (a
  // tree leaf) dies mid-stream. Producers move the undurable announced
  // counts to the adopter (consumer 0), the collective term routes around
  // the dead leaf, and both survivors exhaust exactly.
  constexpr int kProducers = 2, kConsumers = 3, kEach = 45;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  config.faults.crash(/*world rank of consumer 2=*/4, util::microseconds(40));
  std::vector<std::vector<std::uint64_t>> delivered(kConsumers);
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
      s.terminate(self);
    } else {
      s.operate(self);  // must exhaust — a count mismatch would deadlock
      EXPECT_TRUE(s.exhausted());
    }
  });
  EXPECT_TRUE(all_unique(delivered[0]));
  EXPECT_TRUE(all_unique(delivered[1]));
  std::set<std::uint64_t> seen;
  for (const auto& d : delivered) seen.insert(d.begin(), d.end());
  EXPECT_EQ(seen.size(),
            static_cast<std::size_t>(kProducers) * static_cast<std::size_t>(kEach));
}

TEST(StreamFailover, CreditBlockedProducerRecoversAndReplays) {
  // Every element is directed at consumer 1 under a tight credit window.
  // When consumer 1 dies, the producer is asleep waiting for a credit that
  // can never come; the crash notification wakes it, it rebinds to consumer
  // 0, replays, and the stream completes with every element delivered.
  constexpr int kEach = 60;
  auto config = testing::tiny_machine(3);  // 1 producer + 2 consumers
  config.faults.crash(/*world rank of consumer 1=*/2, util::microseconds(30));
  std::vector<std::uint64_t> survivor;
  std::vector<std::uint64_t> dead;
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    cfg.checkpoint_interval = 8;
    cfg.max_inflight = 4;  // tight: the point is stalling
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    const int me = ch.my_consumer_index(self);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(),
                              [&](const StreamElement& el) {
                                self.compute(util::microseconds(2));  // slow
                                std::uint64_t id = 0;
                                std::memcpy(&id, el.data, sizeof id);
                                (me == 0 ? survivor : dead).push_back(id);
                              });
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        const std::uint64_t id = element_id(0, i);
        s.isend_to(self, 1, SendBuf::of(&id, 1));
      }
      s.terminate(self);
      const stream::StreamStats stats = s.stats();
      EXPECT_GE(stats.failovers, 1u);
      EXPECT_GT(stats.replayed_elements, 0u);
    } else {
      s.operate(self);
    }
  });
  EXPECT_TRUE(all_unique(survivor));
  std::set<std::uint64_t> seen(survivor.begin(), survivor.end());
  seen.insert(dead.begin(), dead.end());
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kEach));
}

TEST(StreamFailover, FaultFreeRetentionStaysBounded) {
  // The replay log is the resilience cost in the fault-free run: with
  // epoch-boundary acks and a credit window, retention can never exceed
  // the open epoch plus the largest window the flow controller may grow to
  // plus ack/batching slack.
  constexpr int kEach = 400;
  constexpr std::uint32_t kInterval = 16, kWindow = 8;
  std::uint64_t max_retained = 0;
  std::uint64_t acks = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.checkpoint_interval = kInterval;
    cfg.max_inflight = kWindow;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(), {});
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        const std::uint64_t id = element_id(0, i);
        s.isend(self, SendBuf::of(&id, 1));
        max_retained = std::max(max_retained, s.stats().retained_elements);
      }
      s.terminate(self);
    } else {
      s.operate(self);
      acks = s.stats().durable_acks;
    }
  });
  // Open epoch + grown credit window + an epoch of slack for the frame and
  // the ack batch in flight.
  EXPECT_LE(max_retained,
            2 * kInterval + ChannelConfig::kWindowGrowthCap * kWindow);
  EXPECT_GE(acks, static_cast<std::uint64_t>(kEach / kInterval / 2));
}

TEST(StreamFailover, ManualDurabilityReplaysEverythingUnacked) {
  // A consumer whose registered durable point never acknowledges is treated
  // as having no durable effects: after its crash the adopter receives the
  // dead consumer's entire flow from the start.
  constexpr int kProducers = 2, kConsumers = 2, kEach = 24;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  config.faults.crash(3, util::microseconds(40));
  std::vector<std::vector<std::uint64_t>> delivered(kConsumers);
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
      // A durable point that acknowledges nothing: nothing becomes durable.
      s.set_durable_point([] {});
      s.operate(self);
    }
  });
  EXPECT_TRUE(all_unique(delivered[0]));
  // The survivor holds its own full flow AND the dead consumer's full flow.
  std::set<std::uint64_t> survivor(delivered[0].begin(), delivered[0].end());
  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < kEach; ++i)
      EXPECT_TRUE(survivor.count(element_id(p, i)))
          << "missing " << p << ":" << i;
}

TEST(StreamFailover, ZeroSendProducerTermRoutesToFailoverTarget) {
  // A producer that never sent an element still has to repair its term
  // routing: after its peer consumer crashes, the term must reach the
  // adopting consumer (which raised its expected term count), or the
  // adopter would wait forever on a term sitting in a dead mailbox.
  constexpr int kProducers = 2, kConsumers = 2;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  config.faults.crash(/*world rank of consumer 1=*/3, util::microseconds(5));
  std::uint64_t survivor_elements = 0;
  bool survivor_exhausted = false;
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.checkpoint_interval = 4;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(), {});
    if (producer) {
      self.compute(util::microseconds(20));  // terminate well after the crash
      if (self.world_rank() == 0) {
        const std::uint64_t id = element_id(0, 0);
        s.isend(self, SendBuf::of(&id, 1));
      }
      // Producer 1 (block-routed at the dead consumer) sends nothing at all.
      s.terminate(self);
    } else {
      survivor_elements = s.operate(self);  // deadlocks if the term is lost
      survivor_exhausted = s.exhausted();
    }
  });
  EXPECT_TRUE(survivor_exhausted);
  EXPECT_EQ(survivor_elements, 1u);
}

TEST(StreamFailover, UnopenedFlowFailsOverBeforeItsFirstElement) {
  // A producer holds state only for the flows it has sent on. Consumer 2
  // dies after the producer's first element (to consumer 0) but before its
  // first isend_to at consumer 2: the failover pass still rebinds, and
  // counts, the unopened flow, so the flow opens toward the failover target
  // and its element reaches that target exactly once.
  constexpr int kConsumers = 3;
  auto config = testing::tiny_machine(1 + kConsumers);
  config.faults.crash(/*world rank of consumer 2=*/3, util::microseconds(10));
  std::vector<std::vector<std::uint64_t>> delivered(kConsumers);
  stream::StreamStats producer_stats;
  int target = -1;
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
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
                                delivered[static_cast<std::size_t>(me)]
                                    .push_back(id);
                              });
    if (producer) {
      const std::uint64_t first = element_id(0, 0);
      s.isend_to(self, 0, SendBuf::of(&first, 1));
      self.compute(util::microseconds(30));  // consumer 2 dies meanwhile
      target = resilience::failover_target(ch, 2, self.machine());
      const std::uint64_t second = element_id(0, 1);
      s.isend_to(self, 2, SendBuf::of(&second, 1));
      s.terminate(self);
      producer_stats = s.stats();
    } else {
      s.operate(self);
    }
  });
  ASSERT_GE(target, 0);
  ASSERT_NE(target, 2);
  for (int c = 0; c < kConsumers; ++c) {
    const auto& d = delivered[static_cast<std::size_t>(c)];
    EXPECT_EQ(std::count(d.begin(), d.end(), element_id(0, 1)),
              c == target ? 1 : 0)
        << "consumer " << c;
  }
  EXPECT_EQ(producer_stats.failovers, 1u);
  EXPECT_EQ(producer_stats.replayed_elements, 0u);
  EXPECT_EQ(producer_stats.open_flows, 2u);
}

TEST(StreamFailover, ManualDurabilityBlockProducerStaysUntilReleased) {
  // Block with a durable point that acknowledges nothing: both consumers
  // compute 5 us per element, and consumer 1 is crashed at 60 us, long
  // after both producers terminated but before it finished consuming.
  // Producer 1 must still be waiting for its root's release, so it can
  // replay its whole unacked flow to the survivor and re-send its term
  // there.
  constexpr int kProducers = 2, kConsumers = 2, kEach = 20;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  config.faults.crash(/*world rank of consumer 1=*/3, util::microseconds(60));
  std::vector<std::vector<std::uint64_t>> delivered(kConsumers);
  std::array<util::SimTime, kProducers> terminated_at{};
  bool survivor_exhausted = false;
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.checkpoint_interval = 4;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    const int me = ch.my_consumer_index(self);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(),
                              [&](const StreamElement& el) {
                                std::uint64_t id = 0;
                                std::memcpy(&id, el.data, sizeof id);
                                delivered[static_cast<std::size_t>(me)]
                                    .push_back(id);
                                self.compute(util::microseconds(5));
                              });
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        const std::uint64_t id = element_id(self.world_rank(), i);
        s.isend(self, SendBuf::of(&id, 1));
      }
      terminated_at[static_cast<std::size_t>(self.world_rank())] = self.now();
      s.terminate(self);
    } else {
      s.set_durable_point([] {});  // acknowledges nothing
      s.operate(self);
      if (me == 0) survivor_exhausted = s.exhausted();
    }
  });
  // Both producers terminated before the crash.
  for (const util::SimTime t : terminated_at) EXPECT_LT(t, util::microseconds(60));
  EXPECT_TRUE(survivor_exhausted);
  EXPECT_TRUE(all_unique(delivered[0]));
  // Nothing was acked durable, so the survivor holds every element.
  const std::set<std::uint64_t> survivor(delivered[0].begin(),
                                         delivered[0].end());
  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < kEach; ++i)
      EXPECT_TRUE(survivor.count(element_id(p, i)))
          << "missing " << p << ":" << i;
}

TEST(StreamFailover, BlockDurablePointRunsOnceBeforeTheRelease) {
  // Block with a registered durable point: each consumer's hook runs exactly
  // once, and no producer's terminate returns before the hook of its root
  // (its block consumer) has finished.
  constexpr int kProducers = 4, kConsumers = 2, kEach = 8;
  auto config = testing::tiny_machine(kProducers + kConsumers);
  std::array<int, kConsumers> hook_runs{};
  std::array<util::SimTime, kConsumers> hook_done{};
  std::array<util::SimTime, kProducers> terminate_returned{};
  std::array<bool, kConsumers> exhausted{};
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.checkpoint_interval = 4;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(), {});
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        const std::uint64_t id = element_id(self.world_rank(), i);
        s.isend(self, SendBuf::of(&id, 1));
      }
      s.terminate(self);
      terminate_returned[static_cast<std::size_t>(self.world_rank())] =
          self.now();
      return;
    }
    const auto me = static_cast<std::size_t>(ch.my_consumer_index(self));
    s.set_durable_point([&] {
      ++hook_runs[me];
      self.compute(util::microseconds(20));  // the flush
      s.ack_durable(self);
      hook_done[me] = self.now();
    });
    s.operate(self);
    exhausted[me] = s.exhausted();
  });
  for (int c = 0; c < kConsumers; ++c) {
    EXPECT_EQ(hook_runs[static_cast<std::size_t>(c)], 1) << "consumer " << c;
    EXPECT_TRUE(exhausted[static_cast<std::size_t>(c)]) << "consumer " << c;
  }
  for (int p = 0; p < kProducers; ++p) {
    const int root = Channel::block_route(p, kProducers, kConsumers);
    EXPECT_GE(terminate_returned[static_cast<std::size_t>(p)],
              hook_done[static_cast<std::size_t>(root)])
        << "producer " << p;
  }
}

/// Durability acks one resilient consumer sends for 40 elements from one
/// producer in epochs of 4, and how often its durable point ran. With
/// `hook` the consumer registers a durable point that, with `ack`,
/// acknowledges.
struct DurableRun {
  std::uint64_t durable_acks = 0;
  int hook_runs = 0;
};
DurableRun durable_run(bool hook, bool ack) {
  DurableRun out;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.checkpoint_interval = 4;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(), {});
    if (producer) {
      for (int i = 0; i < 40; ++i) {
        const std::uint64_t id = element_id(0, i);
        s.isend(self, SendBuf::of(&id, 1));
      }
      s.terminate(self);
      return;
    }
    if (hook)
      s.set_durable_point([&] {
        ++out.hook_runs;
        if (ack) s.ack_durable(self);
      });
    s.operate(self);
    out.durable_acks = s.stats().durable_acks;
  });
  return out;
}

TEST(StreamFailover, WithoutADurablePointEveryEpochBoundaryAcks) {
  // Processing counts as durable: one ack per epoch of 4, 10 for 40
  // elements.
  EXPECT_EQ(durable_run(/*hook=*/false, /*ack=*/false).durable_acks, 10u);
}

TEST(StreamFailover, ADurablePointMakesItsAcksTheOnlyOnes) {
  // A registered durable point is the manual mode: no epoch boundary acks
  // on its own, the hook runs once before the release, and only what it
  // acknowledges is acknowledged.
  const DurableRun silent = durable_run(/*hook=*/true, /*ack=*/false);
  EXPECT_EQ(silent.hook_runs, 1);
  EXPECT_EQ(silent.durable_acks, 0u);
  const DurableRun acking = durable_run(/*hook=*/true, /*ack=*/true);
  EXPECT_EQ(acking.hook_runs, 1);
  EXPECT_EQ(acking.durable_acks, 1u);  // one flow, acked once at the end
}

TEST(StreamFailover, TreeDurablePointRunsBeforeTheAnnounceAck) {
  // Directed (tree) termination with a registered durable point on every
  // consumer: each hook runs exactly once, and a consumer's announce-ack —
  // which the aggregator needs before it releases anyone — waits for its
  // hook, so no producer's terminate returns before every consumer's hook
  // has finished.
  constexpr int kProducers = 2, kConsumers = 3, kEach = 12;
  std::array<int, kConsumers> hook_runs{};
  std::array<util::SimTime, kConsumers> hook_done{};
  std::array<util::SimTime, kProducers> terminate_returned{};
  std::array<std::uint64_t, kConsumers> durable_acks{};
  testing::run_program(testing::tiny_machine(kProducers + kConsumers),
                       [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    cfg.checkpoint_interval = 4;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(), {});
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        const std::uint64_t id = element_id(self.world_rank(), i);
        s.isend_to(self, (self.world_rank() + i) % kConsumers,
                   SendBuf::of(&id, 1));
      }
      s.terminate(self);
      terminate_returned[static_cast<std::size_t>(self.world_rank())] =
          self.now();
      return;
    }
    const auto me = static_cast<std::size_t>(ch.my_consumer_index(self));
    // The non-aggregators flush longer than the aggregator, so an
    // announce-ack sent ahead of its hook would let the release overtake it.
    s.set_durable_point([&] {
      ++hook_runs[me];
      self.compute(util::microseconds(me == 0 ? 5 : 40));  // the flush
      hook_done[me] = self.now();
    });
    s.operate(self);
    durable_acks[me] = s.stats().durable_acks;
  });
  for (int c = 0; c < kConsumers; ++c) {
    const auto cz = static_cast<std::size_t>(c);
    EXPECT_EQ(hook_runs[cz], 1) << "consumer " << c;
    EXPECT_EQ(durable_acks[cz], 0u) << "consumer " << c;
    for (int p = 0; p < kProducers; ++p)
      EXPECT_GE(terminate_returned[static_cast<std::size_t>(p)], hook_done[cz])
          << "producer " << p << " consumer " << c;
  }
}

/// One run of the burst-under-crash shape: producer 0 (world rank 0) sends
/// kBurst 64-byte elements back to back to consumer `victim`, which crashes
/// at `crash_at`; producer 1 sends kPaced elements to its default consumer,
/// each after 10 us of compute. Nothing becomes durable (the epoch is
/// longer than the stream), so the victim holds no element the survivor
/// does not get again.
struct BurstRun {
  static constexpr int kBurst = 4000, kPaced = 200;
  std::vector<std::vector<std::uint64_t>> delivered{2};
  std::array<std::uint64_t, 2> duplicates{};
};

BurstRun burst_under_crash(ChannelConfig::Mapping mapping, int victim,
                           util::SimTime crash_at) {
  constexpr int kProducers = 2;
  struct Element {
    std::uint64_t id = 0;
    std::array<std::byte, 56> pad{};
  };
  auto config = testing::tiny_machine(kProducers + 2);
  config.faults.crash(kProducers + victim, crash_at);
  BurstRun run;
  testing::run_program(config, [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.mapping = mapping;
    cfg.checkpoint_interval = 1u << 20;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    const int me = ch.my_consumer_index(self);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(sizeof(Element)),
                              [&](const StreamElement& el) {
                                std::uint64_t id = 0;
                                std::memcpy(&id, el.data, sizeof id);
                                run.delivered[static_cast<std::size_t>(me)]
                                    .push_back(id);
                              });
    if (self.world_rank() == 0) {
      for (int i = 0; i < BurstRun::kBurst; ++i) {
        const Element el{element_id(0, i), {}};
        s.isend_to(self, victim, SendBuf::of(&el, 1));
      }
      s.terminate(self);
    } else if (producer) {
      for (int i = 0; i < BurstRun::kPaced; ++i) {
        self.compute(util::microseconds(10));
        const Element el{element_id(1, i), {}};
        s.isend(self, SendBuf::of(&el, 1));
      }
      s.terminate(self);
    } else {
      s.operate(self);
      run.duplicates[static_cast<std::size_t>(me)] =
          s.stats().duplicates_dropped;
    }
  });
  return run;
}

TEST(StreamFailover, BurstingFlowReplaysAheadOfItsOpenFrame) {
  // A crash that lands inside a burst leaves the producer packing a frame
  // when it rebinds the flow. That frame holds the flow's newest elements,
  // so it must reach the adopter after the replayed ones: sent first, it
  // would move the adopter's cursor past the whole replay, which would
  // then be dropped as duplicates and lost. Swept over crash times before
  // the victim releases its producers (about 628 us on Block), on Block, on
  // a Directed tree leaf and on the tree's aggregator.
  using Mapping = ChannelConfig::Mapping;
  const std::array<std::pair<Mapping, int>, 3> cases{
      {{Mapping::Block, 0}, {Mapping::Directed, 1}, {Mapping::Directed, 0}}};
  for (const auto& [mapping, victim] : cases) {
    for (int k = 0; k < 20; ++k) {
      const auto crash_at = util::microseconds(5 + 30 * k);
      SCOPED_TRACE(::testing::Message()
                   << (mapping == Mapping::Block ? "Block" : "Directed")
                   << ", consumer " << victim << " crashes at " << 5 + 30 * k
                   << " us");
      BurstRun run;
      EXPECT_NO_THROW(run = burst_under_crash(mapping, victim, crash_at));
      const auto survivor_index = static_cast<std::size_t>(1 - victim);
      const auto& survivor = run.delivered[survivor_index];
      EXPECT_EQ(run.duplicates[survivor_index], 0u);
      EXPECT_TRUE(all_unique(survivor));
      const std::set<std::uint64_t> seen(survivor.begin(), survivor.end());
      int missing = 0;
      for (int i = 0; i < BurstRun::kBurst; ++i)
        missing += seen.count(element_id(0, i)) == 0 ? 1 : 0;
      for (int i = 0; i < BurstRun::kPaced; ++i)
        missing += seen.count(element_id(1, i)) == 0 ? 1 : 0;
      EXPECT_EQ(missing, 0);
    }
  }
}

TEST(StreamFailover, AdaptiveWindowGrowsUnderCreditStallsOnly) {
  // The flow controller retunes max_inflight from its credit-stall signal:
  // a fast producer against a tight window grows it, up to the growth cap
  // and never below the configured value.
  std::uint32_t window_after = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = 4;  // tight: a fast producer stalls constantly
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(), {});
    if (producer) {
      for (int i = 0; i < 600; ++i) {
        const std::uint64_t id = element_id(0, i);
        s.isend(self, SendBuf::of(&id, 1));
      }
      s.terminate(self);
      window_after = s.stats().max_inflight_now;
    } else {
      s.operate(self);
    }
  });
  EXPECT_GT(window_after, 4u);  // the stall-heavy run must actually grow
  EXPECT_LE(window_after, 4u * stream::ChannelConfig::kWindowGrowthCap);
}

TEST(StreamFailover, FailoverTargetPrefersSameNodeConsumer) {
  // 12 ranks, 4 per node; consumers are world ranks 3-11, so consumer 4
  // (world rank 7) lives on node 1 together with consumer 1 (world rank 4).
  // When it dies, the plain cyclic rule would adopt consumer 5 (node 2) —
  // the topology-aware rule keeps the flows on node 1 instead.
  auto config = testing::tiny_machine(12);
  config.network.ranks_per_node = 4;
  config.faults.crash(7, util::microseconds(200));
  int target = -2;
  testing::run_program(config, [&](Rank& self) {
    const int me = self.world_rank();
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    const Channel ch = Channel::create(self, self.world(), me < 3, me >= 3, cfg);
    self.compute(util::milliseconds(1));  // let the crash land
    if (me == 0) target = resilience::failover_target(ch, 4, self.machine());
  });
  EXPECT_EQ(target, 1);
}

TEST(StreamFailover, FailoverTargetWithoutLocalityIsCyclicNext) {
  // Same shape, no node structure: the historical rule, unchanged.
  auto config = testing::tiny_machine(12);
  config.network.ranks_per_node = 0;
  config.faults.crash(7, util::microseconds(200));
  int target = -2;
  testing::run_program(config, [&](Rank& self) {
    const int me = self.world_rank();
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    const Channel ch = Channel::create(self, self.world(), me < 3, me >= 3, cfg);
    self.compute(util::milliseconds(1));
    if (me == 0) target = resilience::failover_target(ch, 4, self.machine());
  });
  EXPECT_EQ(target, 5);
}

}  // namespace
}  // namespace ds
