// Transport-level element coalescing (ChannelConfig::kCoalesceBudget).
//
// These tests pin the semantic contract of the coalesced transport: packed
// frames must be invisible to stream consumers — per-(context,src) FIFO
// order under wildcard receives, count-based termination exhaustion with
// partial final frames, credit liveness, synthetic elements, oversized
// elements framed alone — plus the single-transport cost model (an element
// larger than any frame budget travels alone and is charged o + o_s at its
// own send), the liveness backstop (elements are never delayed past the
// instant the producing fiber yields) and the flow controller (the budget
// grows under bursty load and shrinks for a sparse producer, the credit
// window grows on stalls and decays back to its configured value, and ack
// batches track frame occupancy above half the liveness clamp).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/machine_helpers.hpp"
#include "core/channel.hpp"
#include "core/stream.hpp"

namespace ds::stream {
namespace {

using mpi::Rank;
using mpi::SendBuf;

/// An element larger than the frame budget can ever grow to, so it always
/// travels in a frame of its own, whatever the flow controller did.
struct Big {
  int seq = 0;
  std::byte fill[9000] = {};
};
static_assert(sizeof(Big) > ChannelConfig::kCoalesceBudget *
                                ChannelConfig::kCoalesceGrowthCap);

TEST(StreamCoalesce, PartialFrameFlushesOnTerminate) {
  // Three small elements fit one frame with room to spare; terminate must
  // flush the partial frame before the term so nothing is stranded.
  std::uint64_t consumed = 0, frames = 0, sent = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) {});
    if (producer) {
      for (int i = 0; i < 3; ++i) s.isend(self, SendBuf::of(&i, 1));
      s.terminate(self);
      const StreamStats stats = s.stats();
      frames = stats.frames_sent;
      sent = stats.elements_sent;
    } else {
      consumed = s.operate(self);
    }
  });
  EXPECT_EQ(consumed, 3u);
  EXPECT_EQ(frames, 1u);  // one frame carried all three elements
  EXPECT_EQ(sent, 3u);
}

TEST(StreamCoalesce, WildcardRecvSeesFramesInPerSourceFifoOrder) {
  // Two producers, one consumer, 64-byte elements: several frames per
  // producer. The wildcard operate() must observe every producer's elements
  // in send order (frames preserve per-(context,src) FIFO; interleaving
  // across sources happens at frame granularity, which FCFS permits).
  constexpr int kEach = 100;
  std::vector<int> last_seq(2, -1);
  std::uint64_t consumed = 0, min_frames = ~0ull;
  bool order_ok = true;
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    const bool producer = self.world_rank() < 2;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    struct Payload {
      int seq = 0;
      std::byte fill[60] = {};
    };
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(sizeof(Payload)),
                              [&](const StreamElement& el) {
                                Payload p;
                                std::memcpy(&p, el.data, sizeof p);
                                auto& last =
                                    last_seq[static_cast<std::size_t>(el.producer)];
                                if (p.seq != last + 1) order_ok = false;
                                last = p.seq;
                              });
    if (producer) {
      for (int i = 0; i < kEach; ++i) {
        Payload p;
        p.seq = i;
        s.isend(self, SendBuf::of(&p, 1));
      }
      s.terminate(self);
      min_frames = std::min(min_frames, s.stats().frames_sent);
    } else {
      consumed = s.operate(self);
    }
  });
  EXPECT_EQ(consumed, 2u * kEach);
  EXPECT_TRUE(order_ok);
  EXPECT_EQ(last_seq[0], kEach - 1);
  EXPECT_EQ(last_seq[1], kEach - 1);
  EXPECT_GE(min_frames, 2u);  // the order survived actual multi-frame packing
}

TEST(StreamCoalesce, BackstopFlushesTheInstantTheProducerYields) {
  // Request/response over two streams, one element per round, far below any
  // budget: the only thing that can flush the frame is the same-instant
  // backstop when the producer blocks waiting for the reply. Completion of
  // every round proves elements are never delayed by coalescing.
  constexpr int kRounds = 5;
  int replies_seen = 0, requests_seen = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool requester = self.world_rank() == 0;
    const Channel fwd =
        Channel::create(self, self.world(), requester, !requester);
    ChannelConfig back_cfg;
    back_cfg.channel_id = 1;
    const Channel back =
        Channel::create(self, self.world(), !requester, requester, back_cfg);
    int got = 0;
    int replies_sent = 0;
    Stream req = Stream::attach(fwd, mpi::Datatype::int32(),
                                [&](const StreamElement&) { ++requests_seen; });
    Stream rsp = Stream::attach(back, mpi::Datatype::int32(),
                                [&](const StreamElement&) {
                                  ++got;
                                  ++replies_seen;
                                });
    if (requester) {
      for (int r = 0; r < kRounds; ++r) {
        req.isend(self, SendBuf::of(&r, 1));
        rsp.operate_while(self, [&] { return got <= r; });
      }
      req.terminate(self);
      (void)rsp.operate(self);  // drain the responder's termination
    } else {
      req.operate_while(self, [&] {
        if (requests_seen > replies_sent) {
          const int v = replies_sent++;
          rsp.isend(self, SendBuf::of(&v, 1));
        }
        return true;
      });
      // operate_while returns once the requester terminated; answer any
      // tail request and close the reply stream.
      while (requests_seen > replies_sent) {
        const int v = replies_sent++;
        rsp.isend(self, SendBuf::of(&v, 1));
      }
      rsp.terminate(self);
    }
  });
  EXPECT_EQ(requests_seen, kRounds);
  EXPECT_EQ(replies_seen, kRounds);
}

TEST(StreamCoalesce, CreditWindowSmallerThanFrameStaysLive) {
  // Window far below one frame's worth: the producer must flush its partial
  // frame before blocking on a credit, or the consumer never sees the
  // elements and the run deadlocks. Completion is the assertion.
  std::uint64_t consumed = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = 4;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [](const StreamElement&) {});
    if (producer) {
      const int v = 1;
      for (int i = 0; i < 37; ++i) s.isend(self, SendBuf::of(&v, 1));
      s.terminate(self);
      // Exact window accounting survives coalescing: credits neither forged
      // nor lost.
      const std::uint64_t credits = s.stats().credits_received;
      EXPECT_LE(credits, 37u);
      EXPECT_GE(credits + cfg.max_inflight, 37u);
    } else {
      consumed = s.operate(self);
    }
  });
  EXPECT_EQ(consumed, 37u);
}

TEST(StreamCoalesce, CountBasedExhaustionWithPartialFinalFrames) {
  // Directed mapping + tree termination: odd element counts leave partial
  // final frames toward both consumers; the announced per-consumer counts
  // must drain them completely before exhaustion.
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kEach = 21;
  std::uint64_t consumed = 0;
  int exhausted_consumers = 0;
  testing::run_program(testing::tiny_machine(kProducers + kConsumers),
                       [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    cfg.max_inflight = 8;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [](const StreamElement&) {});
    if (producer) {
      const int v = 2;
      for (int i = 0; i < kEach; ++i)
        s.isend_to(self, (self.world_rank() + i) % kConsumers, SendBuf::of(&v, 1));
      s.terminate(self);
    } else {
      consumed += s.operate(self);
      if (s.exhausted()) ++exhausted_consumers;
    }
  });
  EXPECT_EQ(consumed, static_cast<std::uint64_t>(kProducers * kEach));
  EXPECT_EQ(exhausted_consumers, kConsumers);
}

TEST(StreamCoalesce, SyntheticElementsSurvivePacking) {
  // Synthetic elements (modeled payloads) coalesce as zero-data sub-records
  // and must still report null data with the full wire size.
  constexpr int kElements = 7;
  int seen = 0;
  bool all_synthetic = true, sizes_ok = true;
  std::uint64_t frames = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(256),
                              [&](const StreamElement& el) {
                                ++seen;
                                all_synthetic &= el.data == nullptr;
                                sizes_ok &= el.bytes == 256;
                              });
    if (producer) {
      for (int i = 0; i < kElements; ++i) s.isend_synthetic(self);
      s.terminate(self);
      frames = s.stats().frames_sent;
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_EQ(seen, kElements);
  EXPECT_TRUE(all_synthetic);
  EXPECT_TRUE(sizes_ok);
  EXPECT_GE(frames, 1u);
}

TEST(StreamCoalesce, OversizedElementsFramedAloneKeepOrder) {
  // Elements larger than the frame budget travel in frames of their own; a
  // pending frame toward the same consumer must flush first so arrival
  // order stays the send order.
  std::vector<int> order;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(sizeof(Big)),
                              [&](const StreamElement& el) {
                                int seq = 0;
                                std::memcpy(&seq, el.data, sizeof seq);
                                order.push_back(seq);
                              });
    if (producer) {
      for (int i = 0; i < 6; ++i) {
        if (i % 3 == 2) {
          Big big;
          big.seq = i;
          s.isend(self, SendBuf::of(&big, 1));
        } else {
          int small[2] = {i, 0};  // small element, coalesces
          s.isend(self, SendBuf::of(small, 2));
        }
      }
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

/// The paper's per-element cost on the test machine: the stream's injection
/// overhead o plus one per-message send overhead o_s.
util::SimTime per_element_cost() {
  return ChannelConfig::kInjectOverhead +
         testing::tiny_machine(2).network.send_overhead;
}

TEST(StreamCoalesce, OverBudgetElementsEachTravelAlone) {
  // Elements larger than any frame budget leave one per frame, each charged
  // the paper's per-element cost o + o_s at its own send, and consumers
  // still see each producer's elements in send order and reach exhaustion.
  constexpr int kProducers = 2, kEach = 40;
  std::vector<int> last_seq(kProducers, -1);
  std::vector<std::uint64_t> frames(kProducers, 0), sent(kProducers, 0);
  std::vector<util::SimTime> send_time(kProducers, 0);
  std::uint64_t consumed = 0;
  bool order_ok = true, exhausted = false;
  testing::run_program(testing::tiny_machine(kProducers + 1), [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(sizeof(Big)),
                              [&](const StreamElement& el) {
                                int seq = 0;
                                std::memcpy(&seq, el.data, sizeof seq);
                                auto& last =
                                    last_seq[static_cast<std::size_t>(el.producer)];
                                if (seq != last + 1) order_ok = false;
                                last = seq;
                              });
    if (producer) {
      const auto p = static_cast<std::size_t>(self.world_rank());
      const util::SimTime before = self.now();
      for (int i = 0; i < kEach; ++i) {
        Big big;
        big.seq = i;
        s.isend(self, SendBuf::of(&big, 1));
      }
      send_time[p] = self.now() - before;
      s.terminate(self);
      const StreamStats stats = s.stats();
      frames[p] = stats.frames_sent;
      sent[p] = stats.elements_sent;
    } else {
      consumed = s.operate(self);
      exhausted = s.exhausted();
    }
  });
  for (int p = 0; p < kProducers; ++p) {
    const auto pz = static_cast<std::size_t>(p);
    EXPECT_EQ(sent[pz], static_cast<std::uint64_t>(kEach));
    EXPECT_EQ(frames[pz], sent[pz]);
    EXPECT_EQ(send_time[pz], kEach * per_element_cost());
    EXPECT_EQ(last_seq[pz], kEach - 1);
  }
  EXPECT_EQ(consumed, static_cast<std::uint64_t>(kProducers * kEach));
  EXPECT_TRUE(order_ok);
  EXPECT_TRUE(exhausted);
}

/// Producer clock advance charged inside the isend of an oversized element
/// sent between two compute phases.
util::SimTime oversized_isend_charge(std::uint32_t checkpoint_interval) {
  util::SimTime charge = 0;
  std::uint64_t consumed = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.checkpoint_interval = checkpoint_interval;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(sizeof(Big)), {});
    if (producer) {
      self.compute(util::microseconds(5));
      Big big;
      const util::SimTime before = self.now();
      s.isend(self, SendBuf::of(&big, 1));
      charge = self.now() - before;
      self.compute(util::microseconds(5));
      s.terminate(self);
    } else {
      consumed = s.operate(self);
    }
  });
  EXPECT_EQ(consumed, 1u);
  return charge;
}

TEST(StreamCoalesce, OversizedElementPaysItsOverheadAtItsOwnSend) {
  // A frame no further element fits is posted at once from the producing
  // fiber, so a lone element pays the paper's per-element cost o + o_s
  // during its own isend — not later as backstop debt.
  EXPECT_GT(per_element_cost(), 0);
  EXPECT_EQ(oversized_isend_charge(0), per_element_cost());
}

TEST(StreamCoalesce, ResilientOversizedElementPaysItsOverheadAtItsOwnSend) {
  // Same cost model on a resilient stream, whose lone frames also carry the
  // epoch header and are retained for replay.
  EXPECT_EQ(oversized_isend_charge(64), per_element_cost());
}

TEST(StreamCoalesce, SelfTuningGrowsBudgetUnderBurstyLoad) {
  // An unthrottled burst keeps filling frames: the self-tuning loop must grow
  // the budget toward its cap, and most elements must leave coalesced.
  std::uint32_t budget_end = 0;
  std::uint64_t frames = 0, sent = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(64),
                              [](const StreamElement&) {});
    if (producer) {
      for (int i = 0; i < 3000; ++i) s.isend_synthetic(self);
      s.terminate(self);
      const StreamStats stats = s.stats();
      budget_end = stats.coalesce_budget_now;
      frames = stats.frames_sent;
      sent = stats.elements_sent;
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_GT(budget_end, ChannelConfig::kCoalesceBudget);
  EXPECT_LE(budget_end, ChannelConfig::kCoalesceBudget *
                            ChannelConfig::kCoalesceGrowthCap);
  EXPECT_EQ(sent, 3000u);
  // Growth shows up as amortization: far fewer frames than the starting
  // budget (~28 elements/frame) would need.
  EXPECT_LT(frames, 3000u / 28u);
}

TEST(StreamCoalesce, SelfTuningAcksTrackFrameOccupancy) {
  // With flow control on, the consumer retunes its credit batch to the
  // frame occupancy: ack messages land near one per frame, far below the
  // per-4-elements starting batch.
  constexpr int kElements = 2000;
  std::uint64_t acks = 0;
  std::uint32_t ack_now = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = 64;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(64),
                              [](const StreamElement&) {});
    if (producer) {
      std::byte payload[64] = {};
      for (int i = 0; i < kElements; ++i)
        s.isend(self, SendBuf{payload, sizeof payload});
      s.terminate(self);
    } else {
      EXPECT_EQ(s.operate(self), static_cast<std::uint64_t>(kElements));
      const StreamStats stats = s.stats();
      acks = stats.ack_messages;
      ack_now = stats.ack_interval_now;
    }
  });
  EXPECT_LT(acks, kElements / 8u);   // per-4 acking would be 500
  EXPECT_GT(ack_now, ChannelConfig::kAckBatch);
}

TEST(StreamCoalesce, SelfTuningShrinksBudgetForASparseProducer) {
  // One element per yield: every frame leaves near-empty from the backstop,
  // so each tuning period of 16 flushes halves the budget, 2048 -> 256, and
  // the floor holds it there.
  std::uint32_t budget_end = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(64),
                              [](const StreamElement&) {});
    if (producer) {
      for (int i = 0; i < 64; ++i) {
        s.isend_synthetic(self);
        self.compute(util::microseconds(1));
      }
      s.terminate(self);
      budget_end = s.stats().coalesce_budget_now;
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_EQ(budget_end, 256u);
}

TEST(StreamCoalesce, SelfTuningWindowDecaysBackToTheConfiguredValue) {
  // A burst against max_inflight = 4 stalls on credits and grows the window;
  // a sparse tail never stalls, so the window decays halfway per tuning
  // period until it sits exactly at the configured value again.
  std::uint32_t after_burst = 0, after_tail = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = 4;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int64(),
                              [](const StreamElement&) {});
    if (producer) {
      const std::int64_t v = 1;
      for (int i = 0; i < 600; ++i) s.isend(self, SendBuf::of(&v, 1));
      after_burst = s.stats().max_inflight_now;
      for (int i = 0; i < 200; ++i) {
        self.compute(util::microseconds(50));
        s.isend(self, SendBuf::of(&v, 1));
      }
      s.terminate(self);
      after_tail = s.stats().max_inflight_now;
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_GT(after_burst, 4u);
  EXPECT_EQ(after_tail, 4u);
}

TEST(StreamCoalesce, SelfTuningAckBatchHoldsHalfTheLivenessClamp) {
  // One-element frames would retune the credit batch down to kAckBatch;
  // the floor at half the liveness clamp (ceil(64 / 1 consumer) / 2) keeps
  // a credit-blocked producer refilling in window halves instead.
  std::uint32_t ack_now = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = 64;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [](const StreamElement&) {});
    if (producer) {
      const int v = 1;
      for (int i = 0; i < 200; ++i) {
        self.compute(util::microseconds(5));
        s.isend(self, SendBuf::of(&v, 1));
      }
      s.terminate(self);
    } else {
      (void)s.operate(self);
      ack_now = s.stats().ack_interval_now;
    }
  });
  EXPECT_EQ(ack_now, 32u);
}

TEST(StreamCoalesce, HeaderOnlyElementsOfFallingSizePackAndArriveOnce) {
  // A real count header with a modeled body of 16 bytes per counted item,
  // for a falling count: large elements travel alone, small ones share
  // frames, and each arrives once with its own modeled size.
  struct CountHeader {
    std::uint32_t items = 0;
    std::uint32_t reserved = 0;
  };
  constexpr std::uint32_t kMaxItems = 160;
  auto wire_of = [](std::uint32_t items) { return sizeof(CountHeader) + 16 * items; };
  std::vector<int> seen(kMaxItems + 1, 0);
  bool sizes_ok = true;
  std::uint64_t frames = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(
        ch, mpi::Datatype::bytes(wire_of(kMaxItems)), [&](const StreamElement& el) {
          CountHeader header;
          std::memcpy(&header, el.data, sizeof header);
          ++seen[header.items];
          sizes_ok &= el.bytes == wire_of(header.items);
        });
    if (producer) {
      for (std::uint32_t n = kMaxItems; n >= 1; --n) {
        const CountHeader header{n, 0};
        s.isend(self, SendBuf::header_only(header, wire_of(n)));
      }
      s.terminate(self);
      frames = s.stats().frames_sent;
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_EQ(seen[0], 0);
  for (std::uint32_t n = 1; n <= kMaxItems; ++n) EXPECT_EQ(seen[n], 1) << n;
  EXPECT_TRUE(sizes_ok);
  EXPECT_LT(frames, kMaxItems);  // the small tail shared frames
}

TEST(StreamCoalesce, BackstopShipsAPartialFrame) {
  // The same-instant backstop posts a partial frame the moment the producer
  // yields, without a terminate; the consumer can poll it before any
  // termination exists.
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    int seen = 0;
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) { ++seen; });
    if (producer) {
      const int v = 9;
      s.isend(self, SendBuf::of(&v, 1));
      self.process().advance(util::milliseconds(2));
      s.terminate(self);
    } else {
      self.process().advance(util::milliseconds(1));
      EXPECT_TRUE(s.poll_one(self));  // arrived well before the term
      EXPECT_EQ(seen, 1);
      (void)s.operate(self);
    }
  });
}

TEST(StreamCoalesce, OversizedAsFinalElementBeforeTerminate) {
  // An oversized element as the very last send finds a partial frame
  // pending toward the same consumer. The ordering-preserving flush, the
  // oversized element's own frame, and the term must arrive in exactly
  // that order — nothing stranded, nothing overtaken.
  std::vector<int> order;
  std::uint64_t consumed = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(sizeof(Big)),
                              [&](const StreamElement& el) {
                                int seq = 0;
                                std::memcpy(&seq, el.data, sizeof seq);
                                order.push_back(seq);
                              });
    if (producer) {
      for (int i = 0; i < 4; ++i) {
        int small[2] = {i, 0};
        s.isend(self, SendBuf::of(small, 2));
      }
      Big big;
      big.seq = 4;
      s.isend(self, SendBuf::of(&big, 1));  // framed alone before the term
      s.terminate(self);
    } else {
      consumed = s.operate(self);
    }
  });
  EXPECT_EQ(consumed, 5u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(StreamCoalesce, OversizedInterleavedWithPartialFinalFramesUnderTreeTermination) {
  // Directed (tree-terminated) spray where every consumer's tail mixes a
  // partial final frame with an oversized element framed alone: count-based
  // exhaustion must account lone and packed elements alike, on every
  // consumer, or operate() would hang or exit early.
  constexpr int kProducers = 2, kConsumers = 3, kEach = 31;
  std::vector<std::uint64_t> per_consumer(kConsumers, 0);
  std::vector<bool> exhausted(kConsumers, false);
  testing::run_program(
      testing::tiny_machine(kProducers + kConsumers), [&](Rank& self) {
        const bool producer = self.world_rank() < kProducers;
        ChannelConfig cfg;
        cfg.mapping = ChannelConfig::Mapping::Directed;
        const Channel ch =
            Channel::create(self, self.world(), producer, !producer, cfg);
        const int me = ch.my_consumer_index(self);
        Stream s = Stream::attach(ch, mpi::Datatype::bytes(sizeof(Big)),
                                  [&](const StreamElement&) {});
        if (producer) {
          for (int i = 0; i < kEach; ++i) {
            const int to = (self.world_rank() + i) % kConsumers;
            if (i % 5 == 4) {
              Big big;
              big.seq = i;
              s.isend_to(self, to, SendBuf::of(&big, 1));  // framed alone
            } else {
              int small[2] = {i, 0};
              s.isend_to(self, to, SendBuf::of(small, 2));  // coalesces
            }
          }
          s.terminate(self);  // partial final frames + announced counts
        } else {
          per_consumer[static_cast<std::size_t>(me)] = s.operate(self);
          exhausted[static_cast<std::size_t>(me)] = s.exhausted();
        }
      });
  std::uint64_t total = 0;
  for (int c = 0; c < kConsumers; ++c) {
    EXPECT_TRUE(exhausted[static_cast<std::size_t>(c)]) << "consumer " << c;
    total += per_consumer[static_cast<std::size_t>(c)];
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kProducers) *
                       static_cast<std::uint64_t>(kEach));
}

TEST(StreamCoalesce, AlternatingOversizedAndSmallWithCreditWindow) {
  // Oversized elements framed alone interleaved with packed elements under
  // flow control: per-element credit accounting must stay exact across
  // both kinds of frame (a lone element acks like any other), so the
  // producer's window never wedges and the tail drains.
  std::uint64_t consumed = 0, credits = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = 3;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(sizeof(Big)), {});
    if (producer) {
      for (int i = 0; i < 20; ++i) {
        if (i % 2 == 0) {
          Big big;
          big.seq = i;
          s.isend(self, SendBuf::of(&big, 1));
        } else {
          int small[2] = {i, 0};
          s.isend(self, SendBuf::of(small, 2));
        }
      }
      s.terminate(self);
      credits = s.stats().credits_received;
    } else {
      consumed = s.operate(self);
    }
  });
  EXPECT_EQ(consumed, 20u);
  EXPECT_LE(credits, 20u);
  // Everything beyond the largest window the flow controller may grow to
  // came back.
  EXPECT_GE(credits + 3u * ChannelConfig::kWindowGrowthCap, 20u);
}

}  // namespace
}  // namespace ds::stream
