// Matching semantics under the context-hashed mailboxes, and lifetime
// guarantees of the pooled op states.
//
// The mailbox buckets posted/unexpected queues per matching context; these
// tests pin the MPI semantics the bucketing must preserve — FIFO arrival
// order per (context, source), wildcard receives, probe-then-recv
// consistency, and context isolation — plus the pooled-op contract: slots
// are reused across the run, and a completed handle pins its op so it is
// never resurrected into a live request while held.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/machine_helpers.hpp"

namespace ds::mpi {
namespace {

TEST(Matching, FifoOrderPerSourceUnderWildcardReceives) {
  // Two senders each inject an ordered sequence; the receiver consumes with
  // fully wildcard receives. Whatever the interleaving across sources, each
  // source's values must arrive in injection order.
  constexpr int kPerSender = 32;
  std::vector<std::vector<int>> seen(2);
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    const int me = self.world_rank();
    if (me < 2) {
      for (int i = 0; i < kPerSender; ++i) {
        const int value = me * 1000 + i;
        self.send(self.world(), 2, 5, SendBuf::of(&value, 1));
      }
    } else {
      for (int i = 0; i < 2 * kPerSender; ++i) {
        int value = -1;
        const Status st =
            self.recv(self.world(), kAnySource, kAnyTag, RecvBuf::of(&value, 1));
        ASSERT_TRUE(st.source == 0 || st.source == 1);
        seen[static_cast<std::size_t>(st.source)].push_back(value);
      }
    }
  });
  for (int src = 0; src < 2; ++src) {
    ASSERT_EQ(seen[static_cast<std::size_t>(src)].size(),
              static_cast<std::size_t>(kPerSender));
    for (int i = 0; i < kPerSender; ++i)
      EXPECT_EQ(seen[static_cast<std::size_t>(src)][static_cast<std::size_t>(i)],
                src * 1000 + i);
  }
}

TEST(Matching, FifoOrderPreservedThroughUnexpectedQueue) {
  // The receiver deliberately arrives late, so every message lands in the
  // unexpected queue first; draining must still observe injection order.
  constexpr int kCount = 24;
  std::vector<int> seen;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      for (int i = 0; i < kCount; ++i)
        self.send(self.world(), 1, 3, SendBuf::of(&i, 1));
    } else {
      self.process().advance(util::milliseconds(10));  // let them all arrive
      for (int i = 0; i < kCount; ++i) {
        int value = -1;
        (void)self.recv(self.world(), kAnySource, kAnyTag, RecvBuf::of(&value, 1));
        seen.push_back(value);
      }
    }
  });
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(Matching, ContextsDoNotCrossMatch) {
  // A message sent on one communicator must be invisible to probes and
  // receives on another (different matching context, same endpoints).
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const Comm other = self.split(self.world(), 0, self.world_rank());
    const auto pending = [&](const Comm& comm) {
      return self.machine().match_probe(comm.context(), self.world_rank(),
                                        kAnySource, kAnyTag, nullptr);
    };
    if (self.world_rank() == 0) {
      const int v = 42;
      self.send(self.world(), 1, 7, SendBuf::of(&v, 1));
    } else {
      self.process().advance(util::milliseconds(1));  // message has arrived
      EXPECT_FALSE(pending(other));
      EXPECT_TRUE(pending(self.world()));
      int value = -1;
      const Status st =
          self.recv(self.world(), kAnySource, kAnyTag, RecvBuf::of(&value, 1));
      EXPECT_EQ(value, 42);
      EXPECT_EQ(st.tag, 7);
      EXPECT_FALSE(pending(other));
    }
  });
}

TEST(Matching, TagFilteredReceiveSkipsOlderTraffic) {
  // A tag-specific receive must match the first message with that tag even
  // when older messages of the same context sit ahead of it in the bucket.
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      for (int i = 0; i < 4; ++i) self.send(self.world(), 1, 1, SendBuf::of(&i, 1));
      const int marked = 99;
      self.send(self.world(), 1, 2, SendBuf::of(&marked, 1));
    } else {
      self.process().advance(util::milliseconds(1));
      int value = -1;
      const Status st = self.recv(self.world(), 0, 2, RecvBuf::of(&value, 1));
      EXPECT_EQ(st.tag, 2);
      EXPECT_EQ(value, 99);
      // The tag-1 backlog is still intact and ordered.
      for (int i = 0; i < 4; ++i) {
        (void)self.recv(self.world(), 0, 1, RecvBuf::of(&value, 1));
        EXPECT_EQ(value, i);
      }
    }
  });
}

TEST(Matching, UnexpectedQueueUnlinksMiddleAndTailThenAppends) {
  // Four messages wait as unexpected arrivals. Filtered receives take the
  // third (from the middle of the queue) and then the fourth (its tail);
  // later arrivals must queue behind the two left, and a wildcard drain
  // must see all four in arrival order.
  std::vector<int> drained;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      const std::array<int, 4> tags{1, 1, 2, 3};
      for (int i = 0; i < 4; ++i)
        self.send(self.world(), 1, tags[static_cast<std::size_t>(i)],
                  SendBuf::of(&i, 1));
      self.process().advance(util::milliseconds(5));
      for (const int i : {4, 5})
        self.send(self.world(), 1, i == 4 ? 4 : 1, SendBuf::of(&i, 1));
    } else {
      self.process().advance(util::milliseconds(1));  // all four queued
      int value = -1;
      (void)self.recv(self.world(), 0, 2, RecvBuf::of(&value, 1));
      EXPECT_EQ(value, 2);
      (void)self.recv(self.world(), 0, 3, RecvBuf::of(&value, 1));
      EXPECT_EQ(value, 3);
      self.process().advance(util::milliseconds(10));  // 4 and 5 queued
      for (int i = 0; i < 4; ++i) {
        (void)self.recv(self.world(), kAnySource, kAnyTag,
                        RecvBuf::of(&value, 1));
        drained.push_back(value);
      }
    }
  });
  EXPECT_EQ(drained, (std::vector<int>{0, 1, 4, 5}));
}

TEST(Matching, PostedQueueUnlinksMiddleAndTailThenAppends) {
  // Three receives are posted with distinct tags. Arrivals match the second
  // (the middle of the queue) and then the third (its tail); a receive
  // posted afterwards must queue behind the first and still match.
  std::array<int, 4> got{-1, -1, -1, -1};
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      self.process().advance(util::milliseconds(1));
      for (const int tag : {2, 3})
        self.send(self.world(), 1, tag, SendBuf::of(&tag, 1));
      self.process().advance(util::milliseconds(1));
      for (const int tag : {4, 1})
        self.send(self.world(), 1, tag, SendBuf::of(&tag, 1));
    } else {
      std::vector<Request> reqs;
      for (const int tag : {1, 2, 3}) {
        int* slot = &got[static_cast<std::size_t>(tag - 1)];
        reqs.push_back(self.irecv(self.world(), 0, tag, RecvBuf::of(slot, 1)));
      }
      self.wait(reqs[2]);  // the tail matched; the middle before it
      EXPECT_TRUE(reqs[1]->complete);
      EXPECT_FALSE(reqs[0]->complete);
      reqs.push_back(self.irecv(self.world(), 0, 4, RecvBuf::of(&got[3], 1)));
      self.wait_all(reqs);
    }
  });
  EXPECT_EQ(got, (std::array<int, 4>{1, 2, 3, 4}));
}

TEST(Matching, CrashCompletesOrphanedReceivesNewestFirst) {
  // A survivor's receives that can only match the crashed rank complete
  // with Status::failed, newest first within their context: the order whose
  // event sequence numbers the virtual-time baselines were recorded with.
  // A receive from a live rank, queued between them, stays posted; one
  // posted after the drain queues behind it; and the run ends with every
  // pool slot back.
  constexpr int kVictim = 0, kSurvivor = 1, kLive = 2;
  auto config = testing::tiny_machine(3);
  config.faults.crash(kVictim, util::milliseconds(1));
  Machine machine(config);
  std::vector<int> completed;
  std::array<int, 2> live_values{-1, -1};
  machine.run([&](Rank& self) {
    const int me = self.world_rank();
    if (me == kVictim) {
      self.compute(util::milliseconds(5));
      return;
    }
    if (me == kLive) {
      self.process().advance(util::milliseconds(2));
      for (const int tag : {9, 10})
        self.send(self.world(), kSurvivor, tag, SendBuf::of(&tag, 1));
      return;
    }
    // Failure-aware receives name their only sender's world rank, as
    // collectives and aggregated IO post them.
    const auto from_victim = [&](int tag) {
      return self.machine().post_recv(
          self.world().context(), kSurvivor, kVictim, tag, RecvBuf::discard(4),
          [&completed, tag] { completed.push_back(tag); },
          /*fused_wake=*/false, /*src_world=*/kVictim);
    };
    std::vector<Request> orphans;
    orphans.push_back(from_victim(0));
    const Request live_first =
        self.irecv(self.world(), kLive, 9, RecvBuf::of(&live_values[0], 1));
    orphans.push_back(from_victim(1));
    orphans.push_back(from_victim(2));  // the tail
    self.wait_all(orphans);
    for (const Request& r : orphans) EXPECT_TRUE(r->status.failed);
    EXPECT_FALSE(live_first->complete);
    const Request live_second =
        self.irecv(self.world(), kLive, 10, RecvBuf::of(&live_values[1], 1));
    self.wait(live_first);
    self.wait(live_second);
  });
  EXPECT_EQ(completed, (std::vector<int>{2, 1, 0}));
  EXPECT_EQ(live_values, (std::array<int, 2>{9, 10}));
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

TEST(Matching, ProbeThenRecvConsistency) {
  // Whatever probe reports (source, tag, bytes) must be exactly what the
  // subsequent filtered receive consumes, message after message. The probe
  // is the look a stream's idle loop takes: Machine::match_probe, parking
  // on its own mailbox until the next arrival while nothing matches.
  constexpr int kCount = 16;
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    const int me = self.world_rank();
    auto& machine = self.machine();
    const auto probe = [&] {
      Status st;
      while (!machine.match_probe(self.world().context(), me, kAnySource,
                                  kAnyTag, &st)) {
        machine.add_probe_waiter(me);
        self.process().suspend();
      }
      return st;
    };
    if (me < 2) {
      for (int i = 0; i < kCount; ++i) {
        const std::int64_t value = me * 100 + i;
        self.send(self.world(), 2, 10 + (i % 3), SendBuf::of(&value, 1));
      }
    } else {
      for (int i = 0; i < 2 * kCount; ++i) {
        const Status probed = probe();
        std::int64_t value = -1;
        const Status got = self.recv(self.world(), probed.source, probed.tag,
                                     RecvBuf::of(&value, 1));
        EXPECT_EQ(got.source, probed.source);
        EXPECT_EQ(got.tag, probed.tag);
        EXPECT_EQ(got.bytes, probed.bytes);
        EXPECT_EQ(value / 100, probed.source);
      }
    }
  });
}

TEST(Matching, PooledOpsAreReusedAcrossMessages) {
  // Steady traffic must run on recycled op slots: the pools may grow to the
  // small peak-concurrency watermark, but nearly every acquisition after
  // warmup comes from the freelist.
  constexpr int kRounds = 500;
  Machine::PoolStats stats{};
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    for (int i = 0; i < kRounds; ++i) {
      int value = i;
      if (self.world_rank() == 0)
        self.send(self.world(), 1, 1, SendBuf::of(&value, 1));
      else
        (void)self.recv(self.world(), 0, 1, RecvBuf::of(&value, 1));
    }
    stats = self.machine().pool_stats();
  });
  EXPECT_GE(stats.send.acquired, static_cast<std::uint64_t>(kRounds));
  EXPECT_GE(stats.recv.acquired, static_cast<std::uint64_t>(kRounds));
  // Far fewer slots than messages: the freelist served the steady state.
  EXPECT_LT(stats.send.created, 32u);
  EXPECT_LT(stats.recv.created, 32u);
  EXPECT_GT(stats.send.reused(), stats.send.acquired / 2);
  EXPECT_GT(stats.recv.reused(), stats.recv.acquired / 2);
}

TEST(Matching, PayloadBuffersRecycleBySizeClass) {
  // A payload too large for the op's inline buffer borrows the smallest
  // spare that fits, or else a new buffer of its power-of-two class.
  detail::PayloadBuffers buffers;
  auto large = buffers.take(3000);
  EXPECT_EQ(large.capacity(), 4096u);
  const std::byte* storage = large.data();
  buffers.give(std::move(large));
  const auto smaller = buffers.take(1500);  // the 4 KiB spare fits
  EXPECT_EQ(smaller.data(), storage);
  EXPECT_TRUE(smaller.empty());
  const auto fresh = buffers.take(1500);  // nothing spare: a 2 KiB buffer
  EXPECT_EQ(fresh.capacity(), 2048u);
  // The smallest class holds any payload one byte over the inline budget.
  EXPECT_EQ(detail::PayloadBuffers::kMinBytes,
            2 * detail::SendOp::kInlineBytes);
  EXPECT_EQ(buffers.take(detail::SendOp::kInlineBytes + 1).capacity(), 128u);
}

// A pool slot is paid for by every op the run ever has alive at once, so
// its inline budget stays small (about 1.2 KB per slot with a 1 KiB one).
static_assert(sizeof(detail::SendOp) <= 320);

TEST(Matching, PayloadsAtTheInlineBudgetRoundTripCopiedAndBorrowed) {
  // Payloads of exactly the inline budget and one byte over it (which
  // borrows a size-class buffer) arrive intact through a copying receive
  // and through a borrowed one read in place; every pool slot comes back.
  constexpr std::size_t kSizes[] = {detail::SendOp::kInlineBytes,
                                    detail::SendOp::kInlineBytes + 1};
  const auto pattern = [](std::size_t n, int salt) {
    std::vector<std::uint8_t> bytes(n);
    for (std::size_t i = 0; i < n; ++i)
      bytes[i] =
          static_cast<std::uint8_t>(i * 7 + static_cast<std::size_t>(salt));
    return bytes;
  };
  Machine machine(testing::tiny_machine(2));
  std::vector<std::vector<std::uint8_t>> copied, borrowed;
  machine.run([&](Rank& self) {
    for (const std::size_t n : kSizes) {
      if (self.world_rank() == 0) {
        for (const int salt : {1, 2}) {
          const auto bytes = pattern(n, salt);
          self.send(self.world(), 1, salt, SendBuf::of(bytes.data(), n));
        }
        continue;
      }
      std::vector<std::uint8_t> into(n);
      const Status st =
          self.recv(self.world(), 0, 1, RecvBuf::of(into.data(), n));
      EXPECT_EQ(st.bytes, n);
      EXPECT_FALSE(st.synthetic);
      copied.push_back(into);
      Request req = self.machine().post_recv(self.world().context(), 1, 0, 2,
                                             RecvBuf::borrowed());
      self.wait(req);
      const auto& recv = static_cast<const detail::RecvOp&>(*req);
      ASSERT_TRUE(recv.message);
      ASSERT_EQ(recv.message->payload_bytes, n);
      const auto* data =
          reinterpret_cast<const std::uint8_t*>(recv.message->payload());
      borrowed.emplace_back(data, data + n);
    }
  });
  ASSERT_EQ(copied.size(), 2u);
  ASSERT_EQ(borrowed.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(copied[i], pattern(kSizes[i], 1)) << kSizes[i] << " bytes";
    EXPECT_EQ(borrowed[i], pattern(kSizes[i], 2)) << kSizes[i] << " bytes";
  }
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

TEST(Matching, SharedPayloadIsReferencedNotCopied) {
  // One read-only buffer sent to two receivers: each op references it (a
  // borrowed receive reads the sender's own bytes), a copying receive still
  // gets the bytes, the wire carries the declared size, and the last
  // reference goes when the ops recycle.
  constexpr std::size_t kWire = 4096;
  auto buffer = std::make_shared<const std::vector<std::uint64_t>>(
      std::vector<std::uint64_t>{11, 22, 33});
  const std::byte* shared_bytes = std::as_bytes(std::span(*buffer)).data();
  Machine machine(testing::tiny_machine(3));
  std::array<std::uint64_t, 3> copied{};
  const std::byte* borrowed_at = nullptr;
  std::array<std::size_t, 2> wire{};
  machine.run([&](Rank& self) {
    const std::uint64_t ctx = self.world().context();
    if (self.world_rank() == 0) {
      const SharedBuf data{buffer, std::as_bytes(std::span(*buffer)), kWire};
      for (const int dst : {1, 2})
        (void)self.machine().post_send(ctx, 0, 0, dst, 4, data);
      return;
    }
    if (self.world_rank() == 1) {
      wire[0] =
          self.recv(self.world(), 0, 4, RecvBuf::of(copied.data(), 3)).bytes;
      return;
    }
    Request req = self.machine().post_recv(ctx, 2, 0, 4, RecvBuf::borrowed());
    self.wait(req);
    const auto& recv = static_cast<const detail::RecvOp&>(*req);
    wire[1] = recv.status.bytes;
    EXPECT_FALSE(recv.status.synthetic);
    borrowed_at = recv.message->payload();
    EXPECT_EQ(recv.message->shared_payload(), buffer);
  });
  EXPECT_EQ(copied, (std::array<std::uint64_t, 3>{11, 22, 33}));
  EXPECT_EQ(borrowed_at, shared_bytes);
  EXPECT_EQ(wire, (std::array<std::size_t, 2>{kWire, kWire}));
  EXPECT_EQ(buffer.use_count(), 1);
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

TEST(Matching, HeldRequestPinsItsCompletedOp) {
  // A completed handle must never be resurrected into a live request: while
  // the Request is held, its op cannot return to the pool, so its generation
  // and completion status stay frozen through arbitrary later traffic.
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    int first = -1;
    Request held;
    if (self.world_rank() == 0) {
      const int v = 7;
      self.send(self.world(), 1, 1, SendBuf::of(&v, 1));
    } else {
      held = self.irecv(self.world(), 0, 1, RecvBuf::of(&first, 1));
      self.wait(held);
    }
    const std::uint32_t gen_at_completion = held ? held->generation() : 0;

    // Heavy follow-up traffic cycles the pools many times over.
    for (int i = 0; i < 300; ++i) {
      int value = i;
      if (self.world_rank() == 0)
        self.send(self.world(), 1, 2, SendBuf::of(&value, 1));
      else
        (void)self.recv(self.world(), 0, 2, RecvBuf::of(&value, 1));
    }

    if (self.world_rank() == 1) {
      ASSERT_TRUE(held);
      EXPECT_TRUE(held->complete);
      EXPECT_EQ(held->generation(), gen_at_completion);
      EXPECT_EQ(held->status.source, 0);
      EXPECT_EQ(held->status.tag, 1);
      EXPECT_EQ(first, 7);
      // The pool really did recycle ops underneath in the meantime.
      EXPECT_GT(self.machine().pool_stats().recv.reused(), 0u);
    }
  });
}

TEST(Matching, DeadContextBucketsAreSweptEventually) {
  // Short-lived communicators must not leak mailbox buckets: once a
  // context goes quiet and drains, the lazy sweep reclaims it, so the
  // bucket count tracks the live contexts rather than every context ever
  // used. (Hot buckets carry an activity mark and are never churned.)
  constexpr int kEpochs = 60;
  constexpr int kPerEpoch = 64;  // enough traffic for several sweep passes
  std::size_t buckets_at_end = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    for (int e = 0; e < kEpochs; ++e) {
      const Comm epoch_comm = self.split(self.world(), 0, self.world_rank());
      for (int i = 0; i < kPerEpoch; ++i) {
        int value = i;
        if (self.world_rank() == 0)
          self.send(epoch_comm, 1, 1, SendBuf::of(&value, 1));
        else
          (void)self.recv(epoch_comm, 0, 1, RecvBuf::of(&value, 1));
      }
    }
    if (self.world_rank() == 1) {
      self.process().advance(util::milliseconds(1));
      buckets_at_end = self.machine().mailbox_context_count(1);
    }
  });
  // 60 epoch contexts (plus world and collective traffic) went through
  // rank 1's mailbox. A bucket needs a full quiet sweep interval (1024
  // mailbox ops, ~14 epochs here) before reclaim, so the tail of recent
  // epochs legitimately lingers — but anything near kEpochs means the
  // sweep is not collecting.
  EXPECT_LE(buckets_at_end, 2u * kEpochs / 3u);
}

TEST(Matching, ManyContextsMatchIndependently) {
  // Interleaved traffic over many communicators: each context's FIFO is
  // independent, and a receive on one context never consumes another's
  // message even when thousands sit queued.
  constexpr int kComms = 8;
  constexpr int kPerComm = 16;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    std::vector<Comm> comms;
    comms.reserve(kComms);
    for (int c = 0; c < kComms; ++c)
      comms.push_back(self.split(self.world(), 0, self.world_rank()));
    if (self.world_rank() == 0) {
      // Round-robin across contexts so every bucket interleaves on the wire.
      for (int i = 0; i < kPerComm; ++i)
        for (int c = 0; c < kComms; ++c) {
          const int value = c * 1000 + i;
          self.send(comms[static_cast<std::size_t>(c)], 1, 4, SendBuf::of(&value, 1));
        }
    } else {
      self.process().advance(util::milliseconds(5));  // all queue as unexpected
      // Drain one context at a time, in reverse creation order.
      for (int c = kComms - 1; c >= 0; --c)
        for (int i = 0; i < kPerComm; ++i) {
          int value = -1;
          (void)self.recv(comms[static_cast<std::size_t>(c)], kAnySource, kAnyTag,
                          RecvBuf::of(&value, 1));
          EXPECT_EQ(value, c * 1000 + i);
        }
    }
  });
}

}  // namespace
}  // namespace ds::mpi
