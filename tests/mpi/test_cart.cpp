#include "mpi/cart.hpp"

#include <gtest/gtest.h>

namespace ds::mpi {
namespace {

TEST(Cart, DimsCreateCubes) {
  EXPECT_EQ(CartTopology::dims_create(8), (std::array<int, 3>{2, 2, 2}));
  EXPECT_EQ(CartTopology::dims_create(27), (std::array<int, 3>{3, 3, 3}));
  EXPECT_EQ(CartTopology::dims_create(64), (std::array<int, 3>{4, 4, 4}));
}

TEST(Cart, DimsCreateNonCubes) {
  for (const int p : {1, 2, 6, 12, 30, 100, 8192}) {
    const auto d = CartTopology::dims_create(p);
    EXPECT_EQ(d[0] * d[1] * d[2], p) << p;
    EXPECT_GE(d[0], d[1]);
    EXPECT_GE(d[1], d[2]);
  }
}

TEST(Cart, RankCoordRoundTrip) {
  const CartTopology cart({3, 2, 4}, {false, false, false});
  for (int r = 0; r < cart.size(); ++r)
    EXPECT_EQ(cart.rank_of(cart.coords_of(r)), r);
}

TEST(Cart, RowMajorConvention) {
  const CartTopology cart({2, 3, 4}, {false, false, false});
  EXPECT_EQ(cart.rank_of({0, 0, 0}), 0);
  EXPECT_EQ(cart.rank_of({0, 0, 1}), 1);
  EXPECT_EQ(cart.rank_of({0, 1, 0}), 4);
  EXPECT_EQ(cart.rank_of({1, 0, 0}), 12);
}

TEST(Cart, NonPeriodicEdgesReturnNull) {
  const CartTopology cart({2, 2, 2}, {false, false, false});
  EXPECT_EQ(cart.neighbor(0, 0, -1), -1);
  EXPECT_EQ(cart.neighbor(0, 0, +1), cart.rank_of({1, 0, 0}));
}

TEST(Cart, PeriodicWrapsAround) {
  const CartTopology cart({3, 1, 1}, {true, false, false});
  EXPECT_EQ(cart.neighbor(0, 0, -1), 2);
  EXPECT_EQ(cart.neighbor(2, 0, +1), 0);
  EXPECT_EQ(cart.neighbor(0, 0, -4), 2);  // multiple wraps
}

TEST(Cart, FaceNeighborsOrdering) {
  const CartTopology cart({3, 3, 3}, {false, false, false});
  const int center = cart.rank_of({1, 1, 1});
  const auto n = cart.face_neighbors(center);
  EXPECT_EQ(n[0], cart.rank_of({0, 1, 1}));
  EXPECT_EQ(n[1], cart.rank_of({2, 1, 1}));
  EXPECT_EQ(n[2], cart.rank_of({1, 0, 1}));
  EXPECT_EQ(n[3], cart.rank_of({1, 2, 1}));
  EXPECT_EQ(n[4], cart.rank_of({1, 1, 0}));
  EXPECT_EQ(n[5], cart.rank_of({1, 1, 2}));
}

TEST(Cart, NeighborhoodIsSymmetric) {
  const CartTopology cart({4, 3, 2}, {false, false, false});
  for (int r = 0; r < cart.size(); ++r) {
    const auto n = cart.face_neighbors(r);
    for (int f = 0; f < 6; ++f) {
      if (n[static_cast<std::size_t>(f)] < 0) continue;
      const auto back = cart.face_neighbors(n[static_cast<std::size_t>(f)]);
      EXPECT_EQ(back[static_cast<std::size_t>(f ^ 1)], r);
    }
  }
}

TEST(Cart, MooreNeighborhoodCountsAndMembers) {
  const CartTopology cart({3, 3, 3}, {false, false, false});
  // The center of a 3x3x3 grid has the full 26-cell neighbourhood.
  EXPECT_EQ(cart.moore_neighbors(cart.rank_of({1, 1, 1})).size(), 26u);
  // A corner has only 7 neighbours.
  const auto corner = cart.moore_neighbors(cart.rank_of({0, 0, 0}));
  EXPECT_EQ(corner.size(), 7u);
  // Face neighbours are a subset of the Moore neighbourhood.
  const int center = cart.rank_of({1, 1, 1});
  const auto moore = cart.moore_neighbors(center);
  for (const int f : cart.face_neighbors(center))
    EXPECT_TRUE(std::binary_search(moore.begin(), moore.end(), f));
}

TEST(Cart, MooreNeighborhoodPeriodicSmallGrid) {
  // 2-wide periodic dimension: +1 and -1 alias to the same rank, which must
  // appear once, and self-aliases are excluded.
  const CartTopology cart({2, 1, 1}, {true, true, true});
  const auto n = cart.moore_neighbors(0);
  EXPECT_EQ(n, (std::vector<int>{1}));
}

TEST(Cart, InvalidInputsThrow) {
  EXPECT_THROW(CartTopology({0, 1, 1}, {false, false, false}),
               std::invalid_argument);
  EXPECT_THROW((void)CartTopology::dims_create(0), std::invalid_argument);
  const CartTopology cart({2, 2, 2}, {false, false, false});
  EXPECT_THROW((void)cart.coords_of(8), std::out_of_range);
  EXPECT_THROW((void)cart.rank_of({2, 0, 0}), std::out_of_range);
  EXPECT_THROW((void)cart.neighbor(0, 3, 1), std::out_of_range);
}

}  // namespace
}  // namespace ds::mpi
