#include "core/group_plan.hpp"

#include <gtest/gtest.h>

#include "mpi/comm.hpp"

namespace ds::stream {
namespace {

mpi::Comm comm_of(int n) { return mpi::Comm(1, mpi::Group::world(n)); }

TEST(GroupPlan, StrideSixteenMatchesPaperAlpha) {
  const GroupPlan plan = GroupPlan::interleaved(comm_of(32), 16);
  EXPECT_EQ(plan.helper_count(), 2);
  EXPECT_EQ(plan.worker_count(), 30);
  EXPECT_TRUE(plan.is_helper(15));
  EXPECT_TRUE(plan.is_helper(31));
  EXPECT_TRUE(plan.is_worker(0));
  EXPECT_TRUE(plan.is_worker(16));
}

TEST(GroupPlan, PartitionIsDisjointAndComplete) {
  const GroupPlan plan = GroupPlan::interleaved(comm_of(64), 8);
  EXPECT_EQ(plan.worker_count() + plan.helper_count(), 64);
  for (const int w : plan.workers()) EXPECT_FALSE(plan.is_helper(w));
  for (const int h : plan.helpers()) EXPECT_TRUE(plan.is_helper(h));
}

TEST(GroupPlan, HelpersAreSpreadNotClustered) {
  const GroupPlan plan = GroupPlan::interleaved(comm_of(48), 16);
  EXPECT_EQ(plan.helpers(), (std::vector<int>{15, 31, 47}));
}

TEST(GroupPlan, InvalidArgumentsThrow) {
  EXPECT_THROW(GroupPlan::interleaved(comm_of(8), 1), std::invalid_argument);
  EXPECT_THROW(GroupPlan::interleaved(comm_of(8), 16), std::invalid_argument);
}

}  // namespace
}  // namespace ds::stream
