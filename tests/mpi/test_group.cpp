#include "mpi/group.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace ds::mpi {
namespace {

TEST(Group, WorldIsIdentity) {
  const Group g = Group::world(4);
  EXPECT_EQ(g.size(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(g.world_rank(i), i);
    EXPECT_EQ(g.rank_of(i), i);
  }
}

TEST(Group, CustomOrderTranslates) {
  const Group g({5, 2, 9});
  EXPECT_EQ(g.world_rank(0), 5);
  EXPECT_EQ(g.rank_of(9), 2);
  EXPECT_EQ(g.rank_of(3), -1);
  EXPECT_TRUE(g.contains(2));
  EXPECT_FALSE(g.contains(4));
}

TEST(Group, DuplicateMembersRejected) {
  EXPECT_THROW(Group({1, 2, 1}), std::invalid_argument);
}

TEST(Group, NegativeMemberRejected) {
  EXPECT_THROW(Group({0, -1, 2}), std::invalid_argument);
}

TEST(Group, RankOfIsMinusOneOutsideTheMembers) {
  const Group g({5, 2, 9});
  EXPECT_EQ(g.rank_of(3), -1);   // below the largest, not a member
  EXPECT_EQ(g.rank_of(10), -1);  // past the largest member
  EXPECT_EQ(g.rank_of(-1), -1);
  EXPECT_EQ(g.rank_of(-2147483647 - 1), -1);
  EXPECT_FALSE(g.contains(-1));
  EXPECT_EQ(Group().rank_of(0), -1);
}

TEST(Group, EqualListsShareOneMemberList) {
  const Group a({3, 1, 4});
  const Group b(std::vector<int>{3, 1, 4});
  const Group copy = a;
  EXPECT_EQ(&a.members(), &b.members());
  EXPECT_EQ(&a.members(), &copy.members());
  EXPECT_NE(&a.members(), &Group({1, 3, 4}).members());
  EXPECT_EQ(&Group::world(6).members(), &Group::world(6).members());
  EXPECT_EQ(&Group().members(), &Group(std::vector<int>{}).members());
}

TEST(Group, InterningIsSafeAcrossThreads) {
  // The intern table is process-wide, so machines run on different threads
  // share it: equal lists still meet in one object while other entries
  // expire around them.
  constexpr int kThreads = 4;
  const Group held({7, 3, 5});
  std::vector<const std::vector<int>*> seen(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&seen, t] {
      for (int i = 0; i < 2000; ++i) {
        const Group transient({100 + i % 50, t});
        const Group shared({7, 3, 5});
        seen[static_cast<std::size_t>(t)] = &shared.members();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto* list : seen) EXPECT_EQ(list, &held.members());
}

TEST(Group, IncludeSelectsInGivenOrder) {
  const Group g({10, 20, 30, 40});
  const Group sub = g.include({3, 0});
  EXPECT_EQ(sub.size(), 2);
  EXPECT_EQ(sub.world_rank(0), 40);
  EXPECT_EQ(sub.world_rank(1), 10);
}

TEST(Group, IncludeOutOfRangeThrows) {
  const Group g({1, 2});
  EXPECT_THROW(g.include({2}), std::out_of_range);
}

TEST(Group, ExcludeKeepsOrder) {
  const Group g({10, 20, 30, 40});
  const Group sub = g.exclude({1});
  EXPECT_EQ(sub.members(), (std::vector<int>{10, 30, 40}));
}

TEST(Group, ExcludeInvalidThrows) {
  const Group g({10});
  EXPECT_THROW(g.exclude({-1}), std::out_of_range);
  EXPECT_THROW(g.exclude({1}), std::out_of_range);
}

TEST(Group, FilterByPosition) {
  const Group g = Group::world(10);
  const Group evens = g.filter_by_position([](int r) { return r % 2 == 0; });
  EXPECT_EQ(evens.size(), 5);
  EXPECT_EQ(evens.world_rank(2), 4);
}

TEST(Group, Equality) {
  EXPECT_EQ(Group({1, 2}), Group({1, 2}));
  EXPECT_FALSE(Group({1, 2}) == Group({2, 1}));
}

}  // namespace
}  // namespace ds::mpi
