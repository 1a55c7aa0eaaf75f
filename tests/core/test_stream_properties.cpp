// Property sweeps over producer/consumer splits: no element lost, no
// element duplicated, termination always reached, for many channel shapes.
#include <gtest/gtest.h>

#include <cstring>

#include <map>
#include <tuple>
#include <vector>

#include "common/machine_helpers.hpp"
#include "core/channel.hpp"
#include "core/stream.hpp"

namespace ds::stream {
namespace {

using mpi::Rank;
using mpi::SendBuf;

struct Shape {
  int producers;
  int consumers;
  int elements_per_producer;
  ChannelConfig::Mapping mapping;
};

/// Streams `shape` (on a resilient channel when `checkpoint_interval` > 0)
/// and checks the stream contracts: every element arrives exactly once,
/// every consumer ends exhausted, and no send or receive pool slot is left
/// outstanding after the run.
void expect_stream_contracts(const Shape& shape,
                             std::uint32_t checkpoint_interval) {
  const int world = shape.producers + shape.consumers;
  std::map<int, int> seen;  // element id -> times seen
  std::uint64_t total_consumed = 0;
  int exhausted = 0;

  mpi::Machine machine(testing::tiny_machine(world));
  machine.run([&](Rank& self) {
    const int me = self.world_rank();
    const bool producer = me < shape.producers;
    ChannelConfig cfg;
    cfg.mapping = shape.mapping;
    cfg.checkpoint_interval = checkpoint_interval;
    const Channel ch = Channel::create(self, self.world(), producer, !producer, cfg);
    auto op = [&](const StreamElement& el) {
      int id = -1;
      std::memcpy(&id, el.data, sizeof id);
      ++seen[id];
    };
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              producer ? Operator{} : Operator{op});
    if (producer) {
      for (int i = 0; i < shape.elements_per_producer; ++i) {
        const int id = me * 10000 + i;
        // Directed producers rotate over every consumer, starting at their
        // own index.
        if (shape.mapping == ChannelConfig::Mapping::Directed) {
          s.isend_to(self, (me + i) % shape.consumers, SendBuf::of(&id, 1));
        } else {
          s.isend(self, SendBuf::of(&id, 1));
        }
      }
      s.terminate(self);
    } else {
      total_consumed += s.operate(self);
      if (s.exhausted()) ++exhausted;
    }
  });

  EXPECT_EQ(total_consumed,
            static_cast<std::uint64_t>(shape.producers) *
                static_cast<std::uint64_t>(shape.elements_per_producer));
  for (const auto& [id, count] : seen) EXPECT_EQ(count, 1) << "element " << id;
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(shape.producers) *
                             static_cast<std::size_t>(shape.elements_per_producer));
  EXPECT_EQ(exhausted, shape.consumers);
  EXPECT_EQ(machine.pool_stats().send.outstanding(), 0u);
  EXPECT_EQ(machine.pool_stats().recv.outstanding(), 0u);
}

class StreamShapeSweep : public ::testing::TestWithParam<Shape> {};

TEST_P(StreamShapeSweep, EveryElementArrivesExactlyOnce) {
  expect_stream_contracts(GetParam(), /*checkpoint_interval=*/0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StreamShapeSweep,
    ::testing::Values(Shape{1, 1, 20, ChannelConfig::Mapping::Block},
                      Shape{4, 1, 10, ChannelConfig::Mapping::Block},
                      Shape{7, 3, 11, ChannelConfig::Mapping::Block},
                      Shape{15, 1, 6, ChannelConfig::Mapping::Block},
                      Shape{3, 3, 9, ChannelConfig::Mapping::Directed},
                      Shape{8, 2, 12, ChannelConfig::Mapping::Directed},
                      Shape{2, 9, 6, ChannelConfig::Mapping::Directed},
                      Shape{5, 4, 7, ChannelConfig::Mapping::Directed},
                      Shape{2, 2, 25, ChannelConfig::Mapping::Directed},
                      // Wide consumer fan-outs stress the termination tree:
                      // multi-level fan-out, counts racing in-flight data.
                      Shape{1, 16, 32, ChannelConfig::Mapping::Directed},
                      Shape{4, 13, 9, ChannelConfig::Mapping::Directed}));

/// A shape on a resilient channel: epochs of `checkpoint_interval`
/// elements, replay logs, and the release that retires them.
struct ResilientShape {
  Shape shape;
  std::uint32_t checkpoint_interval;
};

class ResilientStreamShapeSweep
    : public ::testing::TestWithParam<ResilientShape> {};

TEST_P(ResilientStreamShapeSweep, EveryElementArrivesExactlyOnce) {
  expect_stream_contracts(GetParam().shape, GetParam().checkpoint_interval);
}

INSTANTIATE_TEST_SUITE_P(
    ResilientShapes, ResilientStreamShapeSweep,
    ::testing::Values(
        ResilientShape{{7, 3, 11, ChannelConfig::Mapping::Block}, 4},
        // More consumers than producers: three consumers root nobody.
        ResilientShape{{2, 5, 9, ChannelConfig::Mapping::Block}, 4},
        // Tree shapes where a durability ack sent after the release would
        // strand in the mailbox of a producer that already left.
        ResilientShape{{8, 2, 12, ChannelConfig::Mapping::Directed}, 4},
        ResilientShape{{4, 13, 9, ChannelConfig::Mapping::Directed}, 4},
        ResilientShape{{1, 16, 32, ChannelConfig::Mapping::Directed}, 4}));

class StreamSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamSeedSweep, ImbalancedProducersStillDeliverEverything) {
  // Producers sleep random amounts (per-rank RNG); the consumer must still
  // see every element exactly once, whatever the arrival interleaving.
  constexpr int kProducers = 6;
  std::uint64_t consumed = 0;
  mpi::MachineConfig cfg = testing::tiny_machine(kProducers + 1);
  cfg.engine.seed = GetParam();
  cfg.engine.noise = sim::NoiseConfig{0.3, 100.0, util::microseconds(200)};
  testing::run_program(cfg, [&](Rank& self) {
    const int me = self.world_rank();
    const bool producer = me < kProducers;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::int32(),
                              [&](const StreamElement&) {});
    if (producer) {
      const int v = me;
      for (int i = 0; i < 8; ++i) {
        self.compute(util::microseconds(50 + 100 * (me % 3)));
        s.isend(self, SendBuf::of(&v, 1));
      }
      s.terminate(self);
    } else {
      consumed = s.operate(self);
    }
  });
  EXPECT_EQ(consumed, static_cast<std::uint64_t>(kProducers) * 8u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 17u, 99u));

}  // namespace
}  // namespace ds::stream
