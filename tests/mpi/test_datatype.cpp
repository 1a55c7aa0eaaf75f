#include "mpi/datatype.hpp"

#include <gtest/gtest.h>

namespace ds::mpi {
namespace {

TEST(Datatype, FundamentalSizes) {
  EXPECT_EQ(Datatype::int32().size(), 4u);
  EXPECT_EQ(Datatype::int64().size(), 8u);
  EXPECT_EQ(Datatype::bytes(17).size(), 17u);
}

}  // namespace
}  // namespace ds::mpi
