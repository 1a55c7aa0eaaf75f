#include "core/stream.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/machine_helpers.hpp"

namespace ds::stream {
namespace {

using mpi::Rank;
using mpi::SendBuf;

TEST(Stream, ElementsReachConsumerWithOperatorApplied) {
  std::vector<int> received;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    auto op = [&](const StreamElement& el) {
      int v = 0;
      std::memcpy(&v, el.data, sizeof v);
      received.push_back(v);
    };
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), producer ? Operator{} : op);
    if (producer) {
      for (int i = 0; i < 5; ++i) s.isend(self, SendBuf::of(&i, 1));
      s.terminate(self);
    } else {
      const auto n = s.operate(self);
      EXPECT_EQ(n, 5u);
    }
  });
  EXPECT_EQ(received, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Stream, OperateReturnsAfterAllProducersTerminate) {
  int consumed = 0;
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const bool producer = self.world_rank() < 3;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) { ++consumed; });
    if (producer) {
      const int v = self.world_rank();
      s.isend(self, SendBuf::of(&v, 1));
      s.isend(self, SendBuf::of(&v, 1));
      s.terminate(self);
    } else {
      (void)s.operate(self);
      EXPECT_TRUE(s.exhausted());
    }
  });
  EXPECT_EQ(consumed, 6);
}

TEST(Stream, FcfsAbsorbsProducerImbalance) {
  // One producer is heavily delayed; the consumer must process the fast
  // producer's elements first instead of waiting on the slow one.
  std::vector<int> arrival_order;
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    const bool producer = self.world_rank() < 2;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement& el) {
                                arrival_order.push_back(el.producer);
                              });
    if (producer) {
      if (self.world_rank() == 0) self.process().advance(util::milliseconds(20));
      const int v = 1;
      for (int i = 0; i < 3; ++i) s.isend(self, SendBuf::of(&v, 1));
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
  ASSERT_EQ(arrival_order.size(), 6u);
  // The fast producer (index 1) delivers all three elements first.
  EXPECT_EQ(arrival_order[0], 1);
  EXPECT_EQ(arrival_order[1], 1);
  EXPECT_EQ(arrival_order[2], 1);
}

TEST(Stream, SyntheticElementsReportNullData) {
  int seen = 0;
  bool data_was_null = false;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(1024),
                              [&](const StreamElement& el) {
                                ++seen;
                                data_was_null = el.data == nullptr;
                                EXPECT_EQ(el.bytes, 1024u);
                              });
    if (producer) {
      s.isend_synthetic(self);
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_EQ(seen, 1);
  EXPECT_TRUE(data_was_null);
}

TEST(Stream, OversizedElementRejected) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(8), {});
    if (producer) {
      EXPECT_THROW(s.isend(self, SendBuf::synthetic(9)), std::invalid_argument);
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
}

TEST(Stream, IsendAfterTerminateRejected) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      s.terminate(self);
      const int v = 0;
      EXPECT_THROW(s.isend(self, SendBuf::of(&v, 1)), std::logic_error);
    } else {
      (void)s.operate(self);
    }
  });
}

TEST(Stream, ConsumerApiOnProducerThrows) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      EXPECT_THROW((void)s.operate(self), std::logic_error);
      s.terminate(self);
    } else {
      EXPECT_THROW(s.isend(self, SendBuf::synthetic(4)), std::logic_error);
      (void)s.operate(self);
    }
  });
}

TEST(Stream, DirectedRoutingReachesAddressedConsumer) {
  std::vector<int> seen_by(2, 0);
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const int me = self.world_rank();
    const bool producer = me < 2;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) {
                                ++seen_by[static_cast<std::size_t>(
                                    ch.my_consumer_index(self))];
                              });
    if (producer) {
      const int v = 1;
      s.isend_to(self, 1, SendBuf::of(&v, 1));  // both producers target c1
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_EQ(seen_by[0], 0);
  EXPECT_EQ(seen_by[1], 2);
}

TEST(Stream, PollOneDrainsWithoutBlocking) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    int seen = 0;
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) { ++seen; });
    if (producer) {
      const int v = 7;
      s.isend(self, SendBuf::of(&v, 1));
      s.terminate(self);
    } else {
      EXPECT_FALSE(s.poll_one(self));  // nothing arrived yet at t=0
      self.process().advance(util::milliseconds(1));
      EXPECT_TRUE(s.poll_one(self));   // element
      EXPECT_EQ(seen, 1);
      (void)s.operate(self);           // just the termination remains
      EXPECT_EQ(seen, 1);
    }
  });
}

TEST(Stream, MultipleStreamsOnOneChannelStaySeparate) {
  int a_count = 0, b_count = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream a = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) { ++a_count; }, 1);
    Stream b = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) { ++b_count; }, 2);
    if (producer) {
      const int v = 0;
      a.isend(self, SendBuf::of(&v, 1));
      a.isend(self, SendBuf::of(&v, 1));
      b.isend(self, SendBuf::of(&v, 1));
      a.terminate(self);
      b.terminate(self);
    } else {
      (void)a.operate(self);
      (void)b.operate(self);
    }
  });
  EXPECT_EQ(a_count, 2);
  EXPECT_EQ(b_count, 1);
}

TEST(Stream, DirectedTerminationAggregatesThroughTree) {
  // Regression for the O(P*C) term broadcast: every producer must send
  // exactly one term (to the aggregator), every consumer at most two (its
  // tree children), P + C - 1 term messages in total.
  constexpr int kProducers = 3;
  constexpr int kConsumers = 8;
  std::uint64_t producer_terms = 0, consumer_terms = 0;
  std::uint64_t max_producer_terms = 0, max_consumer_terms = 0;
  testing::run_program(
      testing::tiny_machine(kProducers + kConsumers), [&](Rank& self) {
        const bool producer = self.world_rank() < kProducers;
        ChannelConfig cfg;
        cfg.mapping = ChannelConfig::Mapping::Directed;
        const Channel ch =
            Channel::create(self, self.world(), producer, !producer, cfg);
        Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                                  [](const StreamElement&) {});
        if (producer) {
          const int v = self.world_rank();
          for (int c = 0; c < kConsumers; ++c)
            s.isend_to(self, c, SendBuf::of(&v, 1));
          s.terminate(self);
          const std::uint64_t terms = s.stats().term_messages;
          producer_terms += terms;
          max_producer_terms = std::max(max_producer_terms, terms);
        } else {
          EXPECT_EQ(s.operate(self), 3u);  // one element from each producer
          const std::uint64_t terms = s.stats().term_messages;
          consumer_terms += terms;
          max_consumer_terms = std::max(max_consumer_terms, terms);
        }
      });
  EXPECT_EQ(max_producer_terms, 1u);  // the seed sent kConsumers per producer
  EXPECT_LE(max_consumer_terms, 2u);  // binary-tree fan-out
  EXPECT_EQ(producer_terms + consumer_terms,
            static_cast<std::uint64_t>(kProducers + kConsumers - 1));
}

TEST(Stream, TreeTerminationDoesNotOvertakeInFlightData) {
  // A collective term travels aggregator -> tree, a data element travels
  // producer -> consumer directly; a large element can still be on the wire
  // when the (tiny) term lands. The per-consumer counts the term carries
  // must keep the consumer draining until the element arrives.
  int deep_consumer_elements = 0;
  testing::run_program(testing::tiny_machine(5), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(1 << 20),
                              [&](const StreamElement&) {
                                if (ch.my_consumer_index(self) == 3)
                                  ++deep_consumer_elements;
                              });
    if (producer) {
      // Consumer 3 is the deepest tree node (0 -> 1 -> 3); the 1 MB element
      // takes far longer on the wire than the aggregation path.
      s.isend_to(self, 3, SendBuf::synthetic(1 << 20));
      s.terminate(self);
    } else {
      (void)s.operate(self);
      EXPECT_TRUE(s.exhausted());
    }
  });
  EXPECT_EQ(deep_consumer_elements, 1);
}

TEST(Stream, PollOneSkipsTermOnlyMessages) {
  // Regression: poll_one must not report a termination as a processed
  // element (callers would overcount relative to operate_while semantics).
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    int seen = 0;
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) { ++seen; });
    if (producer) {
      s.terminate(self);  // term-only stream: no data at all
    } else {
      self.process().advance(util::milliseconds(1));
      EXPECT_FALSE(s.poll_one(self));  // term consumed, but no element
      EXPECT_TRUE(s.exhausted());
      EXPECT_EQ(seen, 0);
    }
  });
}

TEST(Stream, IsendToRejectsOutOfRangeConsumer) {
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      const int v = 0;
      EXPECT_THROW(s.isend_to(self, 2, SendBuf::of(&v, 1)), std::out_of_range);
      EXPECT_THROW(s.isend_to(self, -1, SendBuf::of(&v, 1)), std::out_of_range);
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
}

TEST(Stream, IsendToOnBlockAddressesOnlyTheRoutedConsumer) {
  // A Block consumer learns its counts only from the producers it roots, so
  // an element addressed to another producer's consumer would be lost
  // there: consumer 1 would report exhaustion without it and its send slot
  // would stay outstanding. isend_to rejects it instead.
  constexpr int kProducers = 4, kConsumers = 2;
  std::vector<std::uint64_t> consumed(kConsumers, 0);
  mpi::Machine machine(testing::tiny_machine(kProducers + kConsumers));
  machine.run([&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      const int p = ch.my_producer_index(self);
      const int own = ch.route(p);
      const int v = p;
      EXPECT_THROW(s.isend_to(self, 1 - own, SendBuf::of(&v, 1)),
                   std::invalid_argument);
      s.isend_to(self, own, SendBuf::of(&v, 1));
      s.isend(self, SendBuf::of(&v, 1));
      s.terminate(self);
    } else {
      consumed[static_cast<std::size_t>(ch.my_consumer_index(self))] =
          s.operate(self);
    }
  });
  EXPECT_EQ(consumed[0], 4u);
  EXPECT_EQ(consumed[1], 4u);
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
}

TEST(Stream, ProducerHoldsStateOnlyForTheFlowsItSendsOn) {
  // A flow's frame slot (and replay log) opens at its first element, so a
  // producer's framing memory follows the flows it sends on, not the
  // consumer count: on 64 consumers a Block producer holds one flow, with
  // or without resilience, and a Directed producer rotating over every
  // consumer all 64.
  constexpr int kConsumers = 64, kEach = 256;
  for (const auto mapping :
       {ChannelConfig::Mapping::Block, ChannelConfig::Mapping::Directed}) {
    for (const std::uint32_t interval : {0u, 8u}) {
      std::uint32_t open_at_start = 1, open_at_end = 0;
      std::uint64_t consumed = 0;
      testing::run_program(
          testing::tiny_machine(1 + kConsumers), [&](Rank& self) {
            const bool producer = self.world_rank() == 0;
            ChannelConfig cfg;
            cfg.mapping = mapping;
            cfg.checkpoint_interval = interval;
            const Channel ch =
                Channel::create(self, self.world(), producer, !producer, cfg);
            Stream s = Stream::attach(ch, mpi::Datatype::int64(), {});
            if (producer) {
              open_at_start = s.stats().open_flows;
              for (std::uint64_t i = 0; i < kEach; ++i) {
                if (mapping == ChannelConfig::Mapping::Directed)
                  s.isend_to(self, static_cast<int>(i % kConsumers),
                             SendBuf::of(&i, 1));
                else
                  s.isend(self, SendBuf::of(&i, 1));
              }
              s.terminate(self);
              open_at_end = s.stats().open_flows;
            } else {
              consumed += s.operate(self);
            }
          });
      SCOPED_TRACE(::testing::Message()
                   << "mapping " << static_cast<int>(mapping)
                   << " checkpoint_interval " << interval);
      EXPECT_EQ(open_at_start, 0u);
      EXPECT_EQ(open_at_end,
                mapping == ChannelConfig::Mapping::Block ? 1u : 64u);
      EXPECT_EQ(consumed, static_cast<std::uint64_t>(kEach));
    }
  }
}

TEST(Stream, MaxInflightThrottlesProducerToConsumerPace) {
  // Credit-based backpressure: with a window of 2 and a consumer that needs
  // 100 us per element, a 20-element producer must stay within ~2 elements
  // of the consumer instead of finishing instantly.
  util::SimTime producer_done = 0;
  std::uint64_t consumed = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = 2;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) {
                                self.compute(util::microseconds(100));
                              });
    if (producer) {
      const int v = 1;
      for (int i = 0; i < 20; ++i) s.isend(self, SendBuf::of(&v, 1));
      producer_done = self.now();
      s.terminate(self);
    } else {
      consumed = s.operate(self);
    }
  });
  EXPECT_EQ(consumed, 20u);
  // 18 of the 20 sends had to wait for a credit, each behind ~100 us of
  // consumer compute.
  EXPECT_GE(producer_done, util::microseconds(1500));
}

TEST(Stream, InjectionChargesOverheadToProducer) {
  // 100 elements injected at one instant share one frame: the producer pays
  // 100 x the injection overhead o (paper Eq. 4) plus one o_s for the frame
  // and one for its term.
  util::SimTime elapsed = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      const util::SimTime before = self.now();
      const int v = 0;
      for (int i = 0; i < 100; ++i) s.isend(self, SendBuf::of(&v, 1));
      s.terminate(self);
      elapsed = self.now() - before;
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_EQ(elapsed, 100 * ChannelConfig::kInjectOverhead +
                         2 * testing::tiny_machine(2).network.send_overhead);
}

TEST(Stream, ModeledElementsLargerThanHostMemoryStream) {
  // Consumers read each frame in place, so a synthetic element costs its
  // framing bytes on the host, never its modeled wire size: 1 TiB elements
  // stream through plain and resilient channels alike.
  for (const std::uint32_t checkpoint : {0u, 4u}) {
    SCOPED_TRACE(checkpoint);
    mpi::Machine machine(testing::tiny_machine(6));
    int consumed = 0;
    EXPECT_NO_THROW(machine.run([&](Rank& self) {
      const bool producer = self.world_rank() < 4;
      ChannelConfig cfg;
      cfg.checkpoint_interval = checkpoint;
      const Channel ch =
          Channel::create(self, self.world(), producer, !producer, cfg);
      Stream s = Stream::attach(ch, mpi::Datatype::bytes(std::size_t{1} << 40),
                                [&](const StreamElement& el) {
                                  EXPECT_EQ(el.data, nullptr);
                                  ++consumed;
                                });
      if (producer) {
        for (int i = 0; i < 3; ++i) s.isend_synthetic(self);
        s.terminate(self);
      } else {
        (void)s.operate(self);
        EXPECT_TRUE(s.exhausted());
      }
    }));
    EXPECT_EQ(consumed, 12);
    EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  }
}

TEST(Stream, ElementsOf4GiBOrMoreReportTheirExactSize) {
  // A sub-record stores the wire size in 32 bits. An element too wide for
  // it travels alone in its frame and takes its size from the frame's, with
  // and without the resilient epoch header.
  constexpr std::size_t k4GiB = std::size_t{1} << 32;
  for (const std::uint32_t checkpoint : {0u, 4u}) {
    SCOPED_TRACE(checkpoint);
    std::vector<std::size_t> sizes;
    testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
      const bool producer = self.world_rank() == 0;
      ChannelConfig cfg;
      cfg.checkpoint_interval = checkpoint;
      const Channel ch =
          Channel::create(self, self.world(), producer, !producer, cfg);
      Stream s = Stream::attach(
          ch, mpi::Datatype::bytes(k4GiB + 64),
          [&](const StreamElement& el) { sizes.push_back(el.bytes); });
      if (producer) {
        for (const std::size_t n : {k4GiB + 64, k4GiB - 1, std::size_t{64}})
          s.isend(self, SendBuf::synthetic(n));
        s.terminate(self);
      } else {
        (void)s.operate(self);
      }
    });
    EXPECT_EQ(sizes, (std::vector<std::size_t>{k4GiB + 64, k4GiB - 1, 64}));
  }
}

TEST(Stream, RealPayloadOf4GiBRejected) {
  // Real bytes travel with a 32-bit length: a payload that long is refused
  // before any of it is read (the buffer here is deliberately tiny).
  constexpr std::size_t k4GiB = std::size_t{1} << 32;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(k4GiB), {});
    if (producer) {
      const std::uint64_t x = 0;
      EXPECT_THROW(s.isend(self, SendBuf{&x, k4GiB, 0}), std::length_error);
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
}

/// How a consumer leaves a frame it has only partly drained.
enum class MidFrame { OperateWhile, PollOne, Crash };

struct MidFrameRun {
  std::vector<std::int64_t> received;
  mpi::Machine::PoolStats pools;
};

/// One producer sends two bursts of six real int64 elements, one frame
/// each; the consumer takes a single element of the first frame, stops,
/// and resumes after the second frame and the term have arrived (or, under
/// Crash, dies while stopped).
MidFrameRun stop_mid_frame(MidFrame how) {
  auto config = testing::tiny_machine(2);
  if (how == MidFrame::Crash) config.faults.crash(1, util::microseconds(50));
  mpi::Machine machine(config);
  MidFrameRun run;
  machine.run([&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(),
                              [&](const StreamElement& el) {
                                std::int64_t v = 0;
                                std::memcpy(&v, el.data, sizeof v);
                                run.received.push_back(v);
                              });
    if (producer) {
      for (std::int64_t burst = 0; burst < 2; ++burst) {
        for (std::int64_t i = 0; i < 6; ++i) {
          const std::int64_t v = 1000 * burst + i;
          s.isend(self, SendBuf::of(&v, 1));
        }
        self.compute(util::microseconds(10));
      }
      s.terminate(self);
      return;
    }
    if (how == MidFrame::PollOne) {
      while (!s.poll_one(self)) self.compute(util::microseconds(1));
    } else {
      (void)s.operate_while(self, [&] { return run.received.empty(); });
    }
    // Stopped one element into the first frame. The second frame is posted
    // while the first is still held, so releasing the first early would
    // hand its pool slot, payload and all, to the second.
    self.compute(util::microseconds(100));
    self.compute(util::microseconds(1));  // a crashed rank unwinds here
    if (how == MidFrame::PollOne) {
      while (!s.exhausted())
        if (!s.poll_one(self)) self.compute(util::microseconds(1));
    } else {
      (void)s.operate(self);
    }
  });
  run.pools = machine.pool_stats();
  return run;
}

TEST(Stream, ConsumerStoppedMidFrameResumesInPlaceAndReleasesTheFrame) {
  const std::vector<std::int64_t> all{0,    1,    2,    3,    4,    5,
                                      1000, 1001, 1002, 1003, 1004, 1005};
  for (const MidFrame how : {MidFrame::OperateWhile, MidFrame::PollOne}) {
    SCOPED_TRACE(static_cast<int>(how));
    const MidFrameRun run = stop_mid_frame(how);
    EXPECT_EQ(run.received, all);
    EXPECT_EQ(run.pools.send.outstanding(), 0u);
    EXPECT_EQ(run.pools.recv.outstanding(), 0u);
  }
}

TEST(Stream, ConsumerCrashedMidFrameReleasesTheFrame) {
  const MidFrameRun run = stop_mid_frame(MidFrame::Crash);
  EXPECT_EQ(run.received, (std::vector<std::int64_t>{0}));
  EXPECT_EQ(run.pools.send.outstanding(), 0u);
  EXPECT_EQ(run.pools.recv.outstanding(), 0u);
}

}  // namespace
}  // namespace ds::stream
