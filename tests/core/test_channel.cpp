#include "core/channel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/machine_helpers.hpp"
#include "core/stream.hpp"
#include "mpi/datatype.hpp"

namespace ds::stream {
namespace {

using mpi::Rank;

/// Producers whose Block route (the consumer every one of their elements
/// goes to, and so their term root) is consumer `c`.
std::vector<int> routed_to(const Channel& ch, int c) {
  std::vector<int> producers;
  for (int p = 0; p < ch.producer_count(); ++p)
    if (ch.route(p) == c) producers.push_back(p);
  return producers;
}

TEST(Channel, CreatePartitionsProducersAndConsumers) {
  testing::run_program(testing::tiny_machine(6), [&](Rank& self) {
    const int me = self.world_rank();
    const bool producer = me < 4;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    EXPECT_TRUE(ch.valid());
    EXPECT_EQ(ch.producer_count(), 4);
    EXPECT_EQ(ch.consumer_count(), 2);
    if (producer) {
      EXPECT_EQ(ch.my_producer_index(self), me);
      EXPECT_EQ(ch.my_consumer_index(self), -1);
    } else {
      EXPECT_EQ(ch.my_consumer_index(self), me - 4);
      EXPECT_EQ(ch.my_producer_index(self), -1);
    }
  });
}

TEST(Channel, NonMembersGetInertHandle) {
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const int me = self.world_rank();
    // Rank 3 stays out entirely.
    const Channel ch = Channel::create(self, self.world(), me == 0 || me == 1,
                                       me == 2);
    if (me == 3) {
      EXPECT_FALSE(ch.valid());
    } else {
      EXPECT_TRUE(ch.valid());
    }
  });
}

TEST(Channel, ProducerAndConsumerRolesAreExclusive) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    EXPECT_THROW(Channel::create(self, self.world(), true, true),
                 std::invalid_argument);
    // Keep the collective count consistent for both ranks: nothing else.
  });
}

TEST(Channel, BlockMappingIsStableAndBalanced) {
  testing::run_program(testing::tiny_machine(10), [&](Rank& self) {
    const int me = self.world_rank();
    const Channel ch = Channel::create(self, self.world(), me < 8, me >= 8);
    if (!ch.valid()) return;
    // 8 producers over 2 consumers: first half -> 0, second half -> 1.
    EXPECT_EQ(ch.route(0), 0);
    EXPECT_EQ(ch.route(3), 0);
    EXPECT_EQ(ch.route(4), 1);
    EXPECT_EQ(ch.route(7), 1);
    EXPECT_EQ(routed_to(ch, 0), (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(routed_to(ch, 1), (std::vector<int>{4, 5, 6, 7}));
  });
}

TEST(Channel, ChannelRanksMapBackToWorldRanks) {
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    const int me = self.world_rank();
    // Producers: ranks 1 and 3; consumers: 0 and 2 (tests reordering).
    const Channel ch =
        Channel::create(self, self.world(), me % 2 == 1, me % 2 == 0);
    if (!ch.valid()) return;
    EXPECT_EQ(ch.comm().world_rank(Channel::producer_rank(0)), 1);
    EXPECT_EQ(ch.comm().world_rank(Channel::producer_rank(1)), 3);
    EXPECT_EQ(ch.comm().world_rank(ch.consumer_rank(0)), 0);
    EXPECT_EQ(ch.comm().world_rank(ch.consumer_rank(1)), 2);
  });
}

TEST(Channel, RequiresBothGroupsNonEmpty) {
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    EXPECT_THROW(Channel::create(self, self.world(), true, false),
                 std::invalid_argument);
  });
}

TEST(Channel, BlockRouteIsStableAcrossTheWholeSequence) {
  // Invariant: under Block mapping a producer's consumer never changes with
  // the element sequence — the property per-producer element order at the
  // consumer relies on. Every element a producer sends arrives at its
  // route(p).
  constexpr int kProducers = 9, kConsumers = 3, kEach = 256;
  std::vector<int> received(kProducers, 0);
  int misrouted = 0;
  testing::run_program(testing::tiny_machine(kProducers + kConsumers),
                       [&](Rank& self) {
    const int me = self.world_rank();
    const Channel ch =
        Channel::create(self, self.world(), me < kProducers, me >= kProducers);
    const int consumer = ch.my_consumer_index(self);
    Stream s = Stream::attach(
        ch, mpi::Datatype::int32(), [&](const StreamElement& el) {
          if (ch.route(el.producer) != consumer) ++misrouted;
          ++received[static_cast<std::size_t>(el.producer)];
        });
    if (consumer < 0) {
      for (int i = 0; i < kEach; ++i) s.isend(self, mpi::SendBuf::of(&i, 1));
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
  EXPECT_EQ(misrouted, 0);
  for (const int n : received) EXPECT_EQ(n, kEach);
}

TEST(Channel, BlockRoutePartitionsProducersOverEveryConsumer) {
  // Invariant: route(p) partitions the producer set — every producer
  // routes to exactly one consumer's slice, the slices are disjoint and
  // contiguous, and no consumer is left without producers.
  testing::run_program(testing::tiny_machine(11), [&](Rank& self) {
    const int me = self.world_rank();
    const Channel ch = Channel::create(self, self.world(), me < 8, me >= 8);
    if (!ch.valid()) return;
    std::vector<int> owner(static_cast<std::size_t>(ch.producer_count()), -1);
    for (int c = 0; c < ch.consumer_count(); ++c) {
      const std::vector<int> slice = routed_to(ch, c);
      EXPECT_FALSE(slice.empty()) << "consumer " << c;
      for (const int p : slice) {
        EXPECT_EQ(owner[static_cast<std::size_t>(p)], -1);
        owner[static_cast<std::size_t>(p)] = c;
      }
      if (!slice.empty()) {
        EXPECT_EQ(slice.back() - slice.front() + 1,
                  static_cast<int>(slice.size()));
      }
    }
    for (const int c : owner) EXPECT_GE(c, 0);
  });
}

TEST(Channel, TermTreeMetadataFormsConsistentBinaryTree) {
  // Invariant: the termination tree spans every consumer exactly once, each
  // node has at most two children, the depth stays logarithmic, and the
  // subtree slices a collective term is cut into partition the tree.
  testing::run_program(testing::tiny_machine(12), [&](Rank& self) {
    const int me = self.world_rank();
    ChannelConfig cfg;
    cfg.mapping = ChannelConfig::Mapping::Directed;
    const Channel ch = Channel::create(self, self.world(), me < 3, me >= 3, cfg);
    if (!ch.valid()) return;
    EXPECT_TRUE(ch.tree_termination());
    const int consumers = ch.consumer_count();
    ASSERT_EQ(consumers, 9);
    EXPECT_EQ(Channel::term_aggregator(), 0);
    EXPECT_EQ(Channel::term_parent(Channel::term_aggregator()), -1);
    // Spanning, no duplicates: every consumer but the aggregator (which
    // gets one term per producer) has exactly one parent below it, so it
    // gets exactly one term; no consumer forwards to more than two children.
    std::vector<int> children(static_cast<std::size_t>(consumers), 0);
    for (int c = 1; c < consumers; ++c) {
      const int parent = Channel::term_parent(c);
      ASSERT_GE(parent, 0);
      EXPECT_LT(parent, c);
      ++children[static_cast<std::size_t>(parent)];
    }
    for (const int n : children) EXPECT_LE(n, 2);
    EXPECT_LE(ch.term_tree_depth(), 4);  // ceil(log2(9 + 1))

    const auto subtree = [&](int root) {
      std::vector<int> members;
      for (int c = 0; c < consumers; ++c)
        if (Channel::term_in_subtree_of(c, root)) members.push_back(c);
      return members;
    };
    EXPECT_EQ(subtree(0).size(), 9u);
    EXPECT_EQ(subtree(1), (std::vector<int>{1, 3, 4, 7, 8}));
    EXPECT_EQ(subtree(2), (std::vector<int>{2, 5, 6}));
    // A consumer's children's subtrees partition its own subtree minus
    // itself: each slice a parent forwards reaches every count below it
    // exactly once.
    for (int root = 0; root < consumers; ++root) {
      std::vector<int> covered(static_cast<std::size_t>(consumers), 0);
      for (int child = 1; child < consumers; ++child)
        if (Channel::term_parent(child) == root)
          for (const int c : subtree(child)) ++covered[static_cast<std::size_t>(c)];
      for (int c = 0; c < consumers; ++c)
        EXPECT_EQ(covered[static_cast<std::size_t>(c)],
                  c != root && Channel::term_in_subtree_of(c, root) ? 1 : 0)
            << "root " << root << ", consumer " << c;
    }
  });
}

TEST(Channel, BlockMappingKeepsPerPeerTermAccounting) {
  testing::run_program(testing::tiny_machine(10), [&](Rank& self) {
    const int me = self.world_rank();
    const Channel ch = Channel::create(self, self.world(), me < 8, me >= 8);
    if (!ch.valid()) return;
    EXPECT_FALSE(ch.tree_termination());
    // Under Block, a consumer roots one term per routed producer.
    EXPECT_EQ(routed_to(ch, 0).size(), 4u);
    EXPECT_EQ(routed_to(ch, 1).size(), 4u);
  });
}

TEST(Channel, DistinctChannelIdsGetDistinctContexts) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const int me = self.world_rank();
    ChannelConfig c1;
    c1.channel_id = 1;
    ChannelConfig c2;
    c2.channel_id = 2;
    const Channel a = Channel::create(self, self.world(), me == 0, me == 1, c1);
    const Channel b = Channel::create(self, self.world(), me == 0, me == 1, c2);
    EXPECT_NE(a.comm().context(), b.comm().context());
  });
}

}  // namespace
}  // namespace ds::stream
