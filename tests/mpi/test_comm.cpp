#include "mpi/comm.hpp"

#include <gtest/gtest.h>

#include "common/machine_helpers.hpp"

namespace ds::mpi {
namespace {

TEST(Comm, InvalidByDefault) {
  Comm c;
  EXPECT_FALSE(c.valid());
}

TEST(Comm, TranslatesRanks) {
  const Comm c(7, Group({4, 1, 8}));
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(c.size(), 3);
  EXPECT_EQ(c.world_rank(2), 8);
  EXPECT_EQ(c.rank_of_world(1), 1);
  EXPECT_EQ(c.rank_of_world(5), -1);
}

TEST(Comm, EqualityByContext) {
  const Comm a(7, Group({0, 1}));
  const Comm b(7, Group({0, 1}));
  const Comm c(8, Group({0, 1}));
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(CommSplit, PartitionsByColor) {
  std::vector<int> sizes(6, 0);
  std::vector<int> ranks(6, -1);
  testing::run_program(testing::tiny_machine(6), [&](Rank& self) {
    const int me = self.world_rank();
    const Comm sub = self.split(self.world(), me % 2, me);
    sizes[static_cast<std::size_t>(me)] = sub.size();
    ranks[static_cast<std::size_t>(me)] = self.rank_in(sub);
  });
  for (int r = 0; r < 6; ++r) EXPECT_EQ(sizes[static_cast<std::size_t>(r)], 3);
  // Even world ranks 0,2,4 become 0,1,2 in their sub-communicator.
  EXPECT_EQ(ranks[0], 0);
  EXPECT_EQ(ranks[2], 1);
  EXPECT_EQ(ranks[4], 2);
}

TEST(CommSplit, KeyControlsOrdering) {
  std::vector<int> ranks(4, -1);
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const int me = self.world_rank();
    // Reverse order via descending keys.
    const Comm sub = self.split(self.world(), 0, -me);
    ranks[static_cast<std::size_t>(me)] = self.rank_in(sub);
  });
  EXPECT_EQ(ranks[0], 3);
  EXPECT_EQ(ranks[3], 0);
}

TEST(CommSplit, UndefinedColorGetsInvalidComm) {
  std::vector<bool> valid(4, true);
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const int me = self.world_rank();
    const Comm sub = self.split(self.world(), me == 0 ? -1 : 0, me);
    valid[static_cast<std::size_t>(me)] = sub.valid();
    if (me == 0) {
      // The invalid handle has no members: every call reports it instead
      // of dereferencing nothing.
      EXPECT_EQ(sub.size(), 0);
      EXPECT_EQ(self.rank_in(sub), -1);
      EXPECT_THROW((void)self.barrier(sub), std::logic_error);
    }
  });
  EXPECT_FALSE(valid[0]);
  EXPECT_TRUE(valid[1]);
}

TEST(CommSplit, SubCommunicatorsCarryIsolatedTraffic) {
  std::vector<int> got(4, -1);
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const int me = self.world_rank();
    const Comm sub = self.split(self.world(), me / 2, me);
    // Same (peer rank, tag) in both sub-communicators; contexts isolate.
    const int payload = 100 + me;
    if (self.rank_in(sub) == 0) {
      self.send(sub, 1, 5, SendBuf::of(&payload, 1));
    } else {
      int value = 0;
      (void)self.recv(sub, 0, 5, RecvBuf::of(&value, 1));
      got[static_cast<std::size_t>(me)] = value;
    }
  });
  EXPECT_EQ(got[1], 100);  // from world rank 0
  EXPECT_EQ(got[3], 102);  // from world rank 2
}

TEST(CommSplit, ConsecutiveSplitsGetDistinctContexts) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const Comm a = self.split(self.world(), 0, 0);
    const Comm b = self.split(self.world(), 0, 0);
    EXPECT_NE(a.context(), b.context());
  });
}

}  // namespace
}  // namespace ds::mpi
