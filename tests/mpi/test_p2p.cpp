#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/machine_helpers.hpp"

namespace ds::mpi {
namespace {

TEST(P2P, BlockingSendRecvDeliversPayload) {
  std::vector<int> got;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      const std::vector<int> data{1, 2, 3};
      self.send(self.world(), 1, 7, SendBuf::of(data.data(), data.size()));
    } else {
      got.resize(3);
      const Status st = self.recv(self.world(), 0, 7, RecvBuf::of(got.data(), 3));
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 12u);
      EXPECT_FALSE(st.synthetic);
    }
  });
  EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
}

TEST(P2P, LargeMessageUsesRendezvousAndStillDelivers) {
  // Above the 8 KiB eager threshold.
  constexpr std::size_t kCount = 5000;
  std::vector<double> got;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      std::vector<double> data(kCount);
      std::iota(data.begin(), data.end(), 0.0);
      self.send(self.world(), 1, 1, SendBuf::of(data.data(), data.size()));
    } else {
      got.resize(kCount);
      (void)self.recv(self.world(), 0, 1, RecvBuf::of(got.data(), got.size()));
    }
  });
  EXPECT_EQ(got[0], 0.0);
  EXPECT_EQ(got[kCount - 1], static_cast<double>(kCount - 1));
}

TEST(P2P, SyntheticMessageCarriesSizeOnly) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      self.send(self.world(), 1, 2, SendBuf::synthetic(1 << 20));
    } else {
      const Status st =
          self.recv(self.world(), 0, 2, RecvBuf::discard(1 << 20));
      EXPECT_EQ(st.bytes, 1u << 20);
      EXPECT_TRUE(st.synthetic);
    }
  });
}

TEST(P2P, HeaderOnlyCarriesHeaderWithModeledBody) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      const std::int64_t header = 0xABCD;
      self.send(self.world(), 1, 3, SendBuf::header_only(header, 1 << 16));
    } else {
      std::int64_t header = 0;
      const Status st =
          self.recv(self.world(), 0, 3, RecvBuf::of(&header, 1));
      EXPECT_EQ(header, 0xABCD);
      EXPECT_EQ(st.bytes, 1u << 16);  // wire size, not header size
    }
  });
}

TEST(P2P, MessagesFromOnePairAreOrdered) {
  std::vector<int> order;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      for (int i = 0; i < 20; ++i)
        self.send(self.world(), 1, 4, SendBuf::of(&i, 1));
    } else {
      for (int i = 0; i < 20; ++i) {
        int v = -1;
        (void)self.recv(self.world(), 0, 4, RecvBuf::of(&v, 1));
        order.push_back(v);
      }
    }
  });
  for (int i = 0; i < 20; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(P2P, TagsSelectMessages) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      const int a = 10, b = 20;
      self.send(self.world(), 1, 100, SendBuf::of(&a, 1));
      self.send(self.world(), 1, 200, SendBuf::of(&b, 1));
    } else {
      int v = 0;
      // Receive the later tag first: matching is by tag, not arrival.
      (void)self.recv(self.world(), 0, 200, RecvBuf::of(&v, 1));
      EXPECT_EQ(v, 20);
      (void)self.recv(self.world(), 0, 100, RecvBuf::of(&v, 1));
      EXPECT_EQ(v, 10);
    }
  });
}

TEST(P2P, AnySourceReceivesFromWhoeverArrivesFirst) {
  int first_source = -1;
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    if (self.world_rank() == 0) {
      int v = 0;
      const Status st =
          self.recv(self.world(), kAnySource, kAnyTag, RecvBuf::of(&v, 1));
      first_source = st.source;
      (void)self.recv(self.world(), kAnySource, kAnyTag, RecvBuf::of(&v, 1));
    } else if (self.world_rank() == 1) {
      self.process().advance(util::milliseconds(10));  // rank 2 wins the race
      const int v = 1;
      self.send(self.world(), 0, 9, SendBuf::of(&v, 1));
    } else {
      const int v = 2;
      self.send(self.world(), 0, 9, SendBuf::of(&v, 1));
    }
  });
  EXPECT_EQ(first_source, 2);
}

TEST(P2P, IsendIrecvWithWaitAll) {
  std::vector<int> got(4, -1);
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      std::vector<Request> reqs;
      std::vector<int> vals{0, 1, 2, 3};
      for (int i = 0; i < 4; ++i)
        reqs.push_back(self.isend(self.world(), 1, i, SendBuf::of(&vals[static_cast<std::size_t>(i)], 1)));
      self.wait_all(reqs);
    } else {
      std::vector<Request> reqs;
      for (int i = 0; i < 4; ++i)
        reqs.push_back(self.irecv(self.world(), 0, i,
                                  RecvBuf::of(&got[static_cast<std::size_t>(i)], 1)));
      self.wait_all(reqs);
    }
  });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3}));
}

TEST(P2P, ProbeSeesMessageWithoutConsuming) {
  // Machine::match_probe is the non-consuming look a stream's idle loop
  // takes before it posts a receive: it reports the message, as often as
  // asked, and leaves it for the receive.
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      const int v = 1;
      self.send(self.world(), 1, 42, SendBuf::of(&v, 1));
    } else {
      self.process().advance(util::milliseconds(1));  // message has arrived
      auto& machine = self.machine();
      const std::uint64_t ctx = self.world().context();
      Status st;
      for (int look = 0; look < 2; ++look) {
        ASSERT_TRUE(machine.match_probe(ctx, self.world_rank(), kAnySource,
                                        kAnyTag, &st));
        EXPECT_EQ(st.source, 0);
        EXPECT_EQ(st.tag, 42);
        EXPECT_EQ(st.bytes, sizeof(int));
      }
      int v = 0;
      (void)self.recv(self.world(), st.source, st.tag, RecvBuf::of(&v, 1));
      EXPECT_EQ(v, 1);
      EXPECT_FALSE(machine.match_probe(ctx, self.world_rank(), kAnySource,
                                       kAnyTag, nullptr));
    }
  });
}

TEST(P2P, IprobeReturnsFalseWhenNothingPending) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 1) {
      EXPECT_FALSE(self.machine().match_probe(self.world().context(), 1,
                                              kAnySource, kAnyTag, nullptr));
    } else {
      // Keep rank 0 alive briefly so no traffic exists at probe time.
      self.process().advance(10);
    }
  });
}

TEST(P2P, SendrecvCrossesWithoutDeadlock) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const int me = self.world_rank();
    const int peer = 1 - me;
    const int out = me;
    int in = -1;
    (void)self.sendrecv(self.world(), peer, 0, SendBuf::of(&out, 1), peer, 0,
                        RecvBuf::of(&in, 1));
    EXPECT_EQ(in, peer);
  });
}

TEST(P2P, NegativeUserTagRejected) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    if (self.world_rank() == 0) {
      EXPECT_THROW(self.isend(self.world(), 1, -5, SendBuf::synthetic(1)),
                   std::invalid_argument);
    }
  });
}

TEST(P2P, UnmatchedRecvDeadlocks) {
  mpi::Machine machine(testing::tiny_machine(2));
  EXPECT_THROW(machine.run([](Rank& self) {
                 if (self.world_rank() == 0) {
                   int v;
                   (void)self.recv(self.world(), 1, 0, RecvBuf::of(&v, 1));
                 }
               }),
               sim::DeadlockError);
}

TEST(P2P, TimingReflectsNetworkCosts) {
  const auto makespan = testing::run_program(
      testing::tiny_machine(2), [&](Rank& self) {
        if (self.world_rank() == 0) {
          self.send(self.world(), 1, 0, SendBuf::synthetic(1024));
        } else {
          (void)self.recv(self.world(), 0, 0, RecvBuf::discard(1024));
        }
      });
  // At least overheads + latency; well under a millisecond.
  EXPECT_GT(makespan, util::nanoseconds(1000));
  EXPECT_LT(makespan, util::milliseconds(1));
}

}  // namespace
}  // namespace ds::mpi
