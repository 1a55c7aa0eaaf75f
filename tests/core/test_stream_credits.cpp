// Credit batching (ChannelConfig::ack_interval) under flow control.
//
// The consumer returns credits every k-th consumed element per producer as
// one batched ack message, flushing the remainder on terms and exhaustion.
// These tests pin the liveness contract (the window never stalls mid-stream
// or at the stream end, for any k, including k > window), the message-count
// reduction the batching exists for, and that max_inflight still bounds
// in-flight elements exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/machine_helpers.hpp"
#include "core/channel.hpp"
#include "core/stream.hpp"

namespace ds::stream {
namespace {

using mpi::Rank;
using mpi::RecvBuf;
using mpi::SendBuf;

struct CreditRun {
  std::uint64_t consumed = 0;
  std::uint64_t ack_messages = 0;
  std::uint64_t credits_received = 0;
};

/// One producer, one consumer, Block mapping: send `elements`, terminate,
/// consumer operates to exhaustion.
CreditRun run_block(std::uint32_t window, std::uint32_t ack_interval,
                    int elements) {
  CreditRun run;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = window;
    cfg.ack_interval = ack_interval;
    // These tests pin exact ack-message counts for a given (window, k);
    // self-tuning would retune k toward the coalesced frame occupancy, so
    // it is disabled here (the autotuned interaction is covered in
    // test_stream_coalesce).
    cfg.flow_autotune = false;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      const int v = 1;
      for (int i = 0; i < elements; ++i) s.isend(self, SendBuf::of(&v, 1));
      s.terminate(self);
      run.credits_received = s.stats().credits_received;
    } else {
      run.consumed = s.operate(self);
      run.ack_messages = s.stats().ack_messages;
    }
  });
  return run;
}

TEST(StreamCredits, WindowNeverStallsAtStreamEnd) {
  // Element count not divisible by the batch, tail smaller than a batch:
  // completion itself proves no stall, for a spread of (window, k) shapes.
  for (const auto& [window, interval] : std::vector<std::pair<std::uint32_t,
                                                              std::uint32_t>>{
           {4u, 4u}, {2u, 2u}, {8u, 3u}, {1u, 1u}, {16u, 16u}}) {
    const CreditRun run = run_block(window, interval, 37);
    EXPECT_EQ(run.consumed, 37u) << "window=" << window << " k=" << interval;
    // Credit accounting: the producer drains acks only while its window is
    // full, so it has consumed at least elements - window credits by the
    // last send, and batching must neither forge nor lose any.
    EXPECT_GE(run.credits_received + window, 37u);
    EXPECT_LE(run.credits_received, 37u);
  }
}

TEST(StreamCredits, AckIntervalLargerThanWindowIsClamped) {
  // k > window would deadlock (the consumer would hold a full window of
  // credits without flushing); the effective interval clamps to the window.
  const CreditRun run = run_block(/*window=*/2, /*ack_interval=*/100, 25);
  EXPECT_EQ(run.consumed, 25u);
}

TEST(StreamCredits, BatchingCutsAckMessageCount) {
  const int elements = 64;
  const CreditRun per_element = run_block(16, 1, elements);
  const CreditRun batched4 = run_block(16, 4, elements);
  const CreditRun batched16 = run_block(16, 16, elements);
  EXPECT_EQ(per_element.ack_messages, 64u);
  EXPECT_EQ(batched4.ack_messages, 16u);
  EXPECT_EQ(batched16.ack_messages, 4u);
  // Same credits flow back regardless of batching (none lost, none forged).
  EXPECT_EQ(per_element.consumed, 64u);
  EXPECT_EQ(batched4.consumed, 64u);
  EXPECT_EQ(batched16.consumed, 64u);
}

TEST(StreamCredits, RemainderFlushesOnTermination) {
  // 10 elements, window 8, k 8: one full batch at 8, then the term must
  // flush the remaining 2 — visible as a second ack message.
  const CreditRun run = run_block(/*window=*/8, /*ack_interval=*/8, 10);
  EXPECT_EQ(run.consumed, 10u);
  EXPECT_EQ(run.ack_messages, 2u);
}

TEST(StreamCredits, DefaultIntervalBatchesByFour) {
  const CreditRun run = run_block(/*window=*/16, /*ack_interval=*/0, 64);
  EXPECT_EQ(run.consumed, 64u);
  EXPECT_EQ(run.ack_messages, 16u);  // kDefaultAckInterval == 4
}

TEST(StreamCredits, MaxInflightStillBoundsInflightExactly) {
  // Window 2, batch 2: the producer may run at most max_inflight elements
  // ahead of consumption. The first credit batch (elements 1-2) flushes,
  // then the consumer stalls inside element 3's operator — element 3's
  // credit is pending, un-flushed. Sends 3-4 ride the flushed batch; send 5
  // must block until the consumer resumes and completes the second batch.
  const util::SimTime stall = util::milliseconds(5);
  std::vector<util::SimTime> send_done(6, 0);
  util::SimTime stall_end = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = 2;
    cfg.ack_interval = 2;
    std::uint64_t consumed = 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) {
                                if (++consumed == 3) {
                                  self.process().advance(stall);
                                  stall_end = self.now();
                                }
                              });
    if (producer) {
      const int v = 1;
      for (int i = 0; i < 6; ++i) {
        s.isend(self, SendBuf::of(&v, 1));
        send_done[static_cast<std::size_t>(i)] = self.now();
      }
      s.terminate(self);
    } else {
      EXPECT_EQ(s.operate(self), 6u);
    }
  });
  // Send 4 completed on the first credit batch, before the stall ended;
  // send 5 needed the second batch, which the stalled consumer held back.
  EXPECT_LT(send_done[3], stall_end);
  EXPECT_GE(send_done[4], stall_end);
}

TEST(StreamCredits, DirectedMappingDrainsUnderBatchedCredits) {
  // Tree termination + flow control + batching: two producers spray two
  // consumers with directed elements; exhaustion (announced counts) must be
  // reached with no credit stall, and the credits all return.
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kEach = 21;  // odd: exercises partial tail batches
  std::uint64_t consumed = 0;
  std::uint64_t credits = 0;
  testing::run_program(testing::tiny_machine(kProducers + kConsumers),
                       [&](Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    cfg.max_inflight = 3;
    cfg.ack_interval = 3;
    cfg.flow_autotune = false;  // pin the window: the bound below is exact
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(), {});
    if (producer) {
      const int v = 2;
      for (int i = 0; i < kEach; ++i)
        s.isend_to(self, (self.world_rank() + i) % kConsumers, SendBuf::of(&v, 1));
      s.terminate(self);
      credits += s.stats().credits_received;
    } else {
      consumed += s.operate(self);
    }
  });
  EXPECT_EQ(consumed, static_cast<std::uint64_t>(kProducers * kEach));
  // Each producer consumed at least kEach - window credits (it drains acks
  // only while blocked) and never more than it sent.
  EXPECT_GE(credits + kProducers * 3u, static_cast<std::uint64_t>(kProducers * kEach));
  EXPECT_LE(credits, static_cast<std::uint64_t>(kProducers * kEach));
}

TEST(StreamCredits, ThrottledProducerStillPacedWithBatching) {
  // The original pacing property of max_inflight holds under the default
  // batched acks: a window of 2 against a 100 us/element consumer keeps the
  // producer at consumer pace.
  util::SimTime producer_done = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = 2;  // default ack_interval, clamped to the window
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
      EXPECT_EQ(s.operate(self), 20u);
    }
  });
  EXPECT_GE(producer_done, util::microseconds(1500));
}

}  // namespace
}  // namespace ds::stream
