// Credit batching under flow control (ChannelConfig::max_inflight).
//
// The consumer returns credits every k-th consumed element per producer as
// one batched ack message, flushing the remainder on terms and exhaustion;
// k starts at ChannelConfig::kAckBatch, is clamped to the liveness bound
// ceil(window / spread), and tracks the frame occupancy. These tests pin the
// liveness contract (the window never stalls mid-stream or at the stream
// end, for any window, including one smaller than the starting batch),
// credit conservation under a window the flow controller may grow to
// kWindowGrowthCap x max_inflight, the message-count reduction the batching
// exists for, and that max_inflight still bounds in-flight elements.
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
  std::uint32_t batch = 0;  ///< the consumer's credit batch at exhaustion
};

/// One producer, one consumer, Block mapping: send `elements`, terminate,
/// consumer operates to exhaustion.
CreditRun run_block(std::uint32_t window, int elements) {
  CreditRun run;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = window;
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
      run.batch = s.stats().ack_interval_now;
    }
  });
  return run;
}

/// The most credits a producer can still be owed when it terminates: the
/// largest window the flow controller may grow `window` to.
std::uint64_t max_outstanding(std::uint32_t window) {
  return static_cast<std::uint64_t>(window) * ChannelConfig::kWindowGrowthCap;
}

TEST(StreamCredits, WindowNeverStallsAtStreamEnd) {
  // Element count not divisible by any batch, tail smaller than a batch:
  // completion itself proves no stall, for a spread of windows (and so of
  // liveness clamps, from below the starting batch to above it).
  for (const std::uint32_t window : {4u, 2u, 8u, 1u, 16u}) {
    const CreditRun run = run_block(window, 37);
    EXPECT_EQ(run.consumed, 37u) << "window=" << window;
    // Credit accounting: the producer drains acks only while its window is
    // full, so it has consumed at least elements - window credits by the
    // last send, and batching must neither forge nor lose any.
    EXPECT_GE(run.credits_received + max_outstanding(window), 37u)
        << "window=" << window;
    EXPECT_LE(run.credits_received, 37u) << "window=" << window;
  }
}

TEST(StreamCredits, AckIntervalLargerThanWindowIsClamped) {
  // A starting batch above the window would deadlock (the consumer would
  // hold a full window of credits without flushing); the effective batch
  // clamps to the window, and the consumer's batch never leaves the clamp.
  for (const std::uint32_t window : {1u, 2u, 3u}) {
    ASSERT_LT(window, ChannelConfig::kAckBatch);
    const CreditRun run = run_block(window, 25);
    EXPECT_EQ(run.consumed, 25u) << "window=" << window;
    EXPECT_GE(run.batch, 1u) << "window=" << window;
    EXPECT_LE(run.batch, window) << "window=" << window;
  }
}

TEST(StreamCredits, BatchingCutsAckMessageCount) {
  // A window of 1 clamps the batch to one ack per element; wider windows
  // let the batch start at kAckBatch and only grow with the frame
  // occupancy, so the ack count falls at least kAckBatch-fold.
  const int elements = 64;
  const CreditRun per_element = run_block(1, elements);
  const CreditRun batched16 = run_block(16, elements);
  const CreditRun batched64 = run_block(64, elements);
  EXPECT_EQ(per_element.ack_messages, 64u);
  EXPECT_LE(batched16.ack_messages, 64u / ChannelConfig::kAckBatch);
  EXPECT_LE(batched64.ack_messages, 64u / ChannelConfig::kAckBatch);
  // Same credits flow back regardless of batching (none lost, none forged).
  EXPECT_EQ(per_element.consumed, 64u);
  EXPECT_EQ(batched16.consumed, 64u);
  EXPECT_EQ(batched64.consumed, 64u);
}

TEST(StreamCredits, RemainderFlushesOnTermination) {
  // 3 elements, window 16: no batch ever fills (the batch starts at
  // kAckBatch and only grows), so the one ack message is the term's flush
  // of the remainder.
  ASSERT_LT(3u, ChannelConfig::kAckBatch);
  const CreditRun run = run_block(/*window=*/16, 3);
  EXPECT_EQ(run.consumed, 3u);
  EXPECT_EQ(run.ack_messages, 1u);
}

TEST(StreamCredits, DefaultIntervalBatchesByFour) {
  // The batch starts at kAckBatch = 4 and only grows from there (up to the
  // clamp of 16), so 64 elements take at most 16 ack messages and at least
  // 4.
  const CreditRun run = run_block(/*window=*/16, 64);
  EXPECT_EQ(run.consumed, 64u);
  EXPECT_LE(run.ack_messages, 64u / ChannelConfig::kAckBatch);
  EXPECT_GE(run.ack_messages, 64u / 16u);
}

TEST(StreamCredits, MaxInflightStillBoundsInflightExactly) {
  // Window 2, batch 2 (kAckBatch clamped to the window): the producer may
  // run at most max_inflight elements ahead of consumption. The first
  // credit batch (elements 1-2) flushes, then the consumer stalls inside
  // element 3's operator — element 3's credit is pending, un-flushed. Sends
  // 3-4 ride the flushed batch; send 5 must block until the consumer
  // resumes and completes the second batch.
  const util::SimTime stall = util::milliseconds(5);
  std::vector<util::SimTime> send_done(6, 0);
  util::SimTime stall_end = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    ChannelConfig cfg;
    cfg.max_inflight = 2;
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
  EXPECT_GE(credits + kProducers * max_outstanding(3),
            static_cast<std::uint64_t>(kProducers * kEach));
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
    cfg.max_inflight = 2;  // kAckBatch, clamped to the window
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
