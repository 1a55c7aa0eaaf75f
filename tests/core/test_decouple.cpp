#include "core/decouple.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <set>
#include <vector>

#include "common/machine_helpers.hpp"
#include "mpi/rank.hpp"

namespace ds::decouple {
namespace {

using mpi::Rank;

struct Sample {
  std::int32_t source = -1;
  std::int32_t tick = -1;
  double value = 0.0;
};

TEST(Pipeline, DispatchesRolesAndRoundTripsTypedRecords) {
  std::vector<int> consumed(8, 0);
  double sum = 0.0;
  testing::run_program(testing::tiny_machine(8), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world()).with_stride(4);
    auto samples = pipeline.stream<Sample>();
    pipeline.run(
        [&](Context& ctx) {
          EXPECT_EQ(ctx.worker_index(), ctx.parent_rank() - ctx.parent_rank() / 4);
          EXPECT_EQ(ctx.worker_count(), 6);
          EXPECT_EQ(ctx.helper_count(), 2);
          EXPECT_EQ(ctx.helper_index(), -1);
          auto& s = ctx[samples];
          EXPECT_TRUE(s.is_producer());
          EXPECT_FALSE(s.is_consumer());
          for (int t = 0; t < 3; ++t)
            s.send(Sample{ctx.parent_rank(), t, 0.5 * t});
          // No terminate(): the pipeline handles it when this returns.
        },
        [&](Context& ctx) {
          EXPECT_EQ(ctx.helper_index(), ctx.parent_rank() / 4);
          EXPECT_EQ(ctx.worker_index(), -1);
          auto& s = ctx[samples];
          s.on_receive([&](const Element<Sample>& el) {
            EXPECT_FALSE(el.synthetic);
            EXPECT_EQ(el.payload_bytes, 0u);
            EXPECT_GE(el.producer, 0);
            consumed[static_cast<std::size_t>(el.record.source)]++;
            sum += el.record.value;
          });
          EXPECT_EQ(s.operate() % 3, 0u);  // every producer sent 3
        });
  });
  for (int r = 0; r < 8; ++r) EXPECT_EQ(consumed[static_cast<std::size_t>(r)], r % 4 == 3 ? 0 : 3);
  EXPECT_DOUBLE_EQ(sum, 6 * (0.0 + 0.5 + 1.0));
}

TEST(Pipeline, TypedPayloadsCrossTheWire) {
  struct Header {
    std::int32_t count = 0;
    std::int32_t tag = 0;
  };
  std::vector<double> received;
  testing::run_program(testing::tiny_machine(3), [&](Rank& self) {
    auto pipeline =
        Pipeline::over(self, self.world()).with_helper_ranks({2});
    auto data = pipeline.stream<Header>(/*max_payload_bytes=*/4 * sizeof(double));
    pipeline.run(
        [&](Context& ctx) {
          auto& s = ctx[data];
          const std::vector<double> body{1.0, 2.0, 3.0};
          s.send(Header{3, ctx.parent_rank()}, body.data(), body.size());
        },
        [&](Context& ctx) {
          auto& s = ctx[data];
          s.on_receive([&](const Element<Header>& el) {
            ASSERT_EQ(el.record.count, 3);
            std::vector<double> body;
            el.payload_to(body, static_cast<std::size_t>(el.record.count));
            for (const double v : body) received.push_back(v);
          });
          s.operate();
        });
  });
  ASSERT_EQ(received.size(), 6u);
  EXPECT_DOUBLE_EQ(std::accumulate(received.begin(), received.end(), 0.0), 12.0);
}

TEST(Pipeline, DirectedStreamsAndModeledBodies) {
  struct Note {
    std::int32_t dest = -1;
    std::int32_t payload_doubles = 0;
  };
  std::vector<std::uint64_t> per_helper(2, 0);
  testing::run_program(testing::tiny_machine(6), [&](Rank& self) {
    StreamOptions options;
    options.mapping = Mapping::Directed;
    auto pipeline = Pipeline::over(self, self.world()).with_stride(3);
    auto notes = pipeline.stream<Note>(64 * sizeof(double), options);
    pipeline.run(
        [&](Context& ctx) {
          auto& s = ctx[notes];
          // Worker w talks to its block helper, body modeled (no real bytes).
          const int target = ctx.helper_of(ctx.worker_index());
          s.send_modeled_to(target, Note{target, 64}, 64 * sizeof(double));
        },
        [&](Context& ctx) {
          auto& s = ctx[notes];
          s.on_receive([&](const Element<Note>& el) {
            // The record is real even when the body is modeled.
            EXPECT_EQ(el.record.dest, ctx.helper_index());
            EXPECT_EQ(el.payload_bytes, 64 * sizeof(double));
            per_helper[static_cast<std::size_t>(ctx.helper_index())]++;
          });
          s.operate();
        });
  });
  // 4 workers, helper_of: workers 0,1 -> helper 0; workers 2,3 -> helper 1.
  EXPECT_EQ(per_helper[0], 2u);
  EXPECT_EQ(per_helper[1], 2u);
}

TEST(Pipeline, RawStreamsCarryBytesAndSynthetics) {
  std::uint64_t real_bytes = 0, synthetic_bytes = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1});
    auto bytes = pipeline.raw_stream(256);
    pipeline.run(
        [&](Context& ctx) {
          auto& s = ctx[bytes];
          const std::vector<std::uint32_t> words{1, 2, 3, 4};
          s.send_items(words.data(), words.size());
          s.send_synthetic(128);
          EXPECT_EQ(s.stats().elements_sent, 2u);
        },
        [&](Context& ctx) {
          auto& s = ctx[bytes];
          s.on_receive([&](const RawElement& el) {
            if (el.synthetic)
              synthetic_bytes += el.bytes;
            else
              real_bytes += el.bytes;
          });
          s.operate();
        });
  });
  EXPECT_EQ(real_bytes, 4 * sizeof(std::uint32_t));
  EXPECT_EQ(synthetic_bytes, 128u);
}

TEST(Pipeline, OnePlanDeclaresAWorkersReducersMasterChain) {
  // Three roles out of one GroupPlan: its helpers split into one master
  // (the last helper) and reducers, as the wordcount reduce group does.
  // Only a stream's two stages hold it.
  std::uint64_t master_received = 0;
  testing::run_program(testing::tiny_machine(6), [&](Rank& self) {
    const stream::GroupPlan plan = stream::GroupPlan::interleaved(self.world(), 3);
    const int master = plan.helpers().back();
    auto pipeline = Pipeline::over(self, self.world());
    const auto workers = pipeline.stage(plan.workers());
    const auto reducers = pipeline.stage(
        [&](int r) { return plan.is_helper(r) && r != master; });
    const auto top = pipeline.stage(std::vector<int>{master});
    auto first = pipeline.raw_stream_between(workers, reducers, 64);
    auto second = pipeline.raw_stream_between(reducers, top, 64);
    pipeline.run_stages({
        [&](Context& ctx) { ctx[first].send_synthetic(64); },
        [&](Context& ctx) {
          auto& in = ctx[first];
          auto& out = ctx[second];
          in.on_receive(
              [&](const RawElement& el) { out.send_synthetic(el.bytes); });
          in.operate();
        },
        [&](Context& ctx) {
          EXPECT_THROW((void)ctx[first], std::logic_error);  // not its stages
          auto& in = ctx[second];
          in.on_receive([&](const RawElement&) { ++master_received; });
          in.operate();
        },
    });
  });
  EXPECT_EQ(master_received, 4u);  // one element per worker, forwarded
}

TEST(Pipeline, WorkerCommSpansExactlyTheWorkers) {
  testing::run_program(testing::tiny_machine(8), [&](Rank& self) {
    auto pipeline =
        Pipeline::over(self, self.world()).with_stride(4).with_worker_comm();
    auto unused = pipeline.raw_stream(8);
    (void)unused;
    pipeline.run(
        [&](Context& ctx) {
          ASSERT_TRUE(ctx.worker_comm().valid());
          EXPECT_EQ(ctx.worker_comm().size(), ctx.worker_count());
          EXPECT_EQ(ctx.self().rank_in(ctx.worker_comm()), ctx.worker_index());
          std::uint64_t one = 1, total = 0;
          ctx.self().allreduce(ctx.worker_comm(), mpi::SendBuf::of(&one, 1),
                               &total, mpi::reduce_sum<std::uint64_t>());
          EXPECT_EQ(total, static_cast<std::uint64_t>(ctx.worker_count()));
        },
        [&](Context& ctx) { EXPECT_FALSE(ctx.worker_comm().valid()); });
  });
}

TEST(Pipeline, EveryRankSharesOneMemberListPerGroup) {
  // Each rank derives the same stage and channel groups; interning keeps
  // one member list for all of them instead of one copy per rank.
  constexpr int kP = 64;
  std::set<const std::vector<int>*> channel_lists;
  std::set<const std::vector<int>*> stage_lists;
  testing::run_program(testing::tiny_machine(kP), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world());
    const auto producers = pipeline.stage([](int r) { return r % 8 != 7; });
    const auto consumers = pipeline.stage([](int r) { return r % 8 == 7; });
    const auto samples = pipeline.stream_between<Sample>(producers, consumers);
    const auto record = [&](Context& ctx) {
      channel_lists.insert(&ctx[samples].channel().comm().group().members());
      stage_lists.insert(&ctx.stage_ranks(0));
    };
    pipeline.run_stages({record, record});
  });
  EXPECT_EQ(channel_lists.size(), 1u);
  EXPECT_EQ(stage_lists.size(), 1u);
}

TEST(Pipeline, EarlyTerminateStaysIdempotentUnderRaii) {
  std::uint64_t consumed = 0;
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1});
    auto flow = pipeline.raw_stream(32);
    pipeline.run(
        [&](Context& ctx) {
          ctx[flow].send_synthetic(32);
          ctx[flow].terminate();  // explicit, before the RAII pass
        },
        [&](Context& ctx) {
          ctx[flow].on_receive([&](const RawElement&) { ++consumed; });
          consumed += 0 * ctx[flow].operate();
        });
  });
  EXPECT_EQ(consumed, 1u);
}

TEST(Pipeline, DuplicateHelperRanksCollapseToOneHelper) {
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    auto pipeline =
        Pipeline::over(self, self.world()).with_helper_ranks({2, 2, 2});
    auto flow = pipeline.raw_stream(16);
    pipeline.run(
        [&](Context& ctx) {
          EXPECT_EQ(ctx.helper_count(), 1);
          EXPECT_EQ(ctx.worker_count(), 3);
          EXPECT_EQ(ctx.helper_of(ctx.worker_index()), 0);
          ctx[flow].send_synthetic(16);
        },
        [&](Context& ctx) {
          EXPECT_EQ(ctx.helper_index(), 0);
          EXPECT_EQ(ctx[flow].operate(), 3u);
        });
  });
}

TEST(Element, PayloadToRejectsCountsBeyondTheWireSize) {
  const std::array<double, 2> body{1.0, 2.0};
  Element<std::int32_t> el;
  el.payload = reinterpret_cast<const std::byte*>(body.data());
  el.payload_bytes = sizeof(body);
  std::vector<double> out;
  el.payload_to(out, 2);  // exactly the wire size: fine
  EXPECT_DOUBLE_EQ(out[1], 2.0);
  // A record header claiming more items than the element carries must not
  // turn into an overread.
  EXPECT_THROW(el.payload_to(out, 3), std::length_error);
}

TEST(Pipeline, MisuseIsRejected) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    {
      auto pipeline = Pipeline::over(self, self.world());
      EXPECT_THROW(pipeline.run({}, {}), std::logic_error);  // no split
      EXPECT_THROW((void)pipeline.stream<Sample>(), std::logic_error);
      EXPECT_THROW((void)pipeline.raw_stream(8), std::logic_error);
      EXPECT_THROW((void)pipeline.worker_stage(), std::logic_error);
      (void)pipeline.stage(std::vector<int>{0});
      // A split or stages, not both.
      EXPECT_THROW(pipeline.with_helper_ranks({1}), std::logic_error);
    }
    {
      auto pipeline = Pipeline::over(self, self.world());
      EXPECT_THROW(pipeline.with_helper_ranks({5}), std::invalid_argument);
      EXPECT_THROW(pipeline.with_helper_ranks({0, 1}), std::invalid_argument);
    }
    {
      auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1});
      EXPECT_THROW((void)pipeline.with_stride(2), std::logic_error);
      EXPECT_THROW((void)pipeline.stage(std::vector<int>{0}), std::logic_error);
      pipeline.run(
          [&](Context& ctx) {
            EXPECT_THROW((void)ctx.worker_comm(), std::logic_error);
          },
          {});
      EXPECT_THROW((void)pipeline.raw_stream(8), std::logic_error);
      EXPECT_THROW(pipeline.run({}, {}), std::logic_error);  // reran
    }
  });
}

TEST(Pipeline, WithResilienceFillsOnlyUnsetIntervals) {
  // A stream whose consumer registers a durable point (manual durability)
  // inherits the pipeline's interval like any other.
  int hook_runs = 0;
  testing::run_program(testing::tiny_machine(4), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({3});
    EXPECT_THROW(pipeline.with_resilience(0), std::invalid_argument);
    pipeline.with_resilience(16);
    auto inherits = pipeline.raw_stream(8);
    StreamOptions own_options;
    own_options.checkpoint_interval = 4;
    auto own = pipeline.raw_stream(8, own_options);
    auto durable = pipeline.raw_stream(8);
    const auto check = [&](Context& ctx) {
      EXPECT_EQ(ctx[inherits].channel().config().checkpoint_interval, 16u);
      EXPECT_EQ(ctx[own].channel().config().checkpoint_interval, 4u);
      EXPECT_EQ(ctx[durable].channel().config().checkpoint_interval, 16u);
    };
    pipeline.run(
        [&](Context& ctx) {
          check(ctx);
          for (const auto& h : {inherits, own, durable})
            ctx[h].send_synthetic(8);
        },
        [&](Context& ctx) {
          check(ctx);
          auto& s = ctx[durable];
          s.on_durable_point([&] {
            ++hook_runs;
            s.ack_durable();
          });
          for (const auto& h : {inherits, own, durable})
            EXPECT_EQ(ctx[h].operate(), 3u);
        });
  });
  EXPECT_EQ(hook_runs, 1);
}

/// Ranks that got past their pipeline's teardown, when rank 0 (the only
/// producer) crashes while it waits there for two consumers still busy.
std::vector<int> finished_after_teardown_crash(bool resilient) {
  auto config = testing::tiny_machine(3);
  config.faults.crash(0, util::milliseconds(1));
  std::vector<int> finished(3, 0);
  testing::run_program(config, [&](Rank& self) {
    {
      auto pipeline = Pipeline::over(self, self.world()).with_helper_ranks({1, 2});
      if (resilient) pipeline.with_resilience();
      auto flow = pipeline.raw_stream(32);
      pipeline.run(
          [&](Context& ctx) {
            for (int i = 0; i < 4; ++i) ctx[flow].send_synthetic(32);
          },
          [&](Context& ctx) {
            (void)ctx[flow].operate();
            self.compute(util::milliseconds(5));
          });
    }  // the producer waits here; the crash lands while it does
    // The killed fiber's next blocking call throws again, like after any
    // crash.
    self.compute(util::microseconds(1));
    finished[static_cast<std::size_t>(self.world_rank())] = 1;
  });
  return finished;
}

TEST(Pipeline, CrashWhileWaitingInTeardownEndsOnlyTheCrashedRank) {
  EXPECT_EQ(finished_after_teardown_crash(false), (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(finished_after_teardown_crash(true), (std::vector<int>{0, 1, 1}));
}

TEST(Pipeline, DeadlockWhileWaitingInTeardownReportsTheDeadlock) {
  // Rank 0 waits in its channel's teardown while rank 1 waits in a world
  // barrier rank 0 never joins. The aborted run kills every rank's fiber
  // before it unwinds them, so rank 0's teardown wait throws; the run must
  // still end with the engine's deadlock report.
  mpi::Machine machine(testing::tiny_machine(2));
  EXPECT_THROW(machine.run([](Rank& self) {
                 auto pipeline =
                     Pipeline::over(self, self.world()).with_helper_ranks({1});
                 auto flow = pipeline.raw_stream(32);
                 pipeline.run(
                     [&](Context& ctx) { ctx[flow].send_synthetic(32); },
                     [&](Context& ctx) {
                       (void)ctx[flow].operate();
                       self.barrier(self.world());
                     });
               }),
               sim::DeadlockError);
}

/// The helpers with_node_placement(`per_node`) picks over `parent`.
std::vector<int> placed_helpers(Rank& self, const mpi::Comm& parent,
                                int per_node) {
  std::vector<int> helpers;
  auto pipeline = Pipeline::over(self, parent).with_node_placement(per_node);
  pipeline.run([&](Context& ctx) { helpers = ctx.stage_ranks(1); },
               [&](Context& ctx) { helpers = ctx.stage_ranks(1); });
  return helpers;
}

TEST(Pipeline, NodePlacementDedicatesTailRanksPerNode) {
  // 8 ranks, 4 per node: the placement split must pick the last rank of
  // each node as its helper, and the streams must still deliver everything.
  auto config = testing::tiny_machine(8);
  config.network.ranks_per_node = 4;
  std::uint64_t consumed = 0;
  testing::run_program(config, [&](Rank& self) {
    auto pipeline =
        Pipeline::over(self, self.world()).with_node_placement(1);
    auto data = pipeline.raw_stream(sizeof(std::int32_t));
    pipeline.run(
        [&](Context& ctx) {
          EXPECT_EQ(ctx.stage_ranks(1), (std::vector<int>{3, 7}));
          EXPECT_EQ(ctx.worker_count(), 6);
          auto& s = ctx[data];
          const std::int32_t v = ctx.parent_rank();
          s.send_items(&v, 1);
          s.send_items(&v, 1);
        },
        [&](Context& ctx) {
          EXPECT_TRUE(ctx.parent_rank() == 3 || ctx.parent_rank() == 7);
          auto& s = ctx[data];
          consumed += s.operate();
        });
  });
  EXPECT_EQ(consumed, 12u);  // 6 workers x 2 elements
}

TEST(Pipeline, NodePlacementSkipsSingleRankNodes) {
  // 9 ranks, 4 per node: node 2 hosts only rank 8, which must stay a
  // worker (a lone rank has nobody to co-locate with).
  auto config = testing::tiny_machine(9);
  config.network.ranks_per_node = 4;
  testing::run_program(config, [&](Rank& self) {
    auto pipeline =
        Pipeline::over(self, self.world()).with_node_placement(1);
    auto data = pipeline.raw_stream(8);
    pipeline.run(
        [&](Context& ctx) {
          EXPECT_EQ(ctx.stage_ranks(1), (std::vector<int>{3, 7}));
        },
        [&](Context& ctx) { (void)ctx[data].operate(); });
  });
}

TEST(Pipeline, NodePlacementRejectsDegenerateShapes) {
  // One rank per node: no node hosts two members, nothing to co-locate.
  auto config = testing::tiny_machine(4);
  config.network.ranks_per_node = 1;
  testing::run_program(config, [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world());
    EXPECT_THROW(pipeline.with_node_placement(1), std::invalid_argument);
    EXPECT_THROW(pipeline.with_node_placement(0), std::invalid_argument);
  });
}

/// A 12-rank machine with 4 ranks per node (nodes {0..3}, {4..7}, {8..11}).
mpi::MachineConfig three_nodes_of_four() {
  auto config = testing::tiny_machine(12);
  config.network.ranks_per_node = 4;
  return config;
}

TEST(Placement, NoLocalityGivesOneRankPerNode) {
  // ranks_per_node <= 0 means no locality: every rank is its own node, so
  // no node hosts two members and there is nothing to co-locate.
  auto config = testing::tiny_machine(5);
  config.network.ranks_per_node = 0;
  testing::run_program(config, [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world());
    EXPECT_THROW(pipeline.with_node_placement(1), std::invalid_argument);
  });
}

TEST(Placement, GroupByNodeKeepsInputOrderWithinGroups) {
  // The parent lists world ranks {9, 1, 0, 8, 5} in that order: node 0's
  // members are parent ranks 1 and 2 (world 1, 0), node 1's is parent
  // rank 4 alone, node 2's are parent ranks 0 and 3 (world 9, 8). The tail
  // of each node is its last member in parent order: world 0 and world 8.
  testing::run_program(three_nodes_of_four(), [&](Rank& self) {
    constexpr std::array<int, 5> kOrder{9, 1, 0, 8, 5};
    const int me = self.world_rank();
    const auto* at = std::find(kOrder.begin(), kOrder.end(), me);
    const bool member = at != kOrder.end();
    const mpi::Comm sub = self.split(
        self.world(), member ? 0 : -1,
        member ? static_cast<int>(at - kOrder.begin()) : 0);
    if (member) {
      EXPECT_EQ(placed_helpers(self, sub, 1), (std::vector<int>{2, 3}));
    }
  });
}

TEST(Placement, TailPerNodeTakesLastMembers) {
  testing::run_program(three_nodes_of_four(), [&](Rank& self) {
    EXPECT_EQ(placed_helpers(self, self.world(), 1),
              (std::vector<int>{3, 7, 11}));
    EXPECT_EQ(placed_helpers(self, self.world(), 2),
              (std::vector<int>{2, 3, 6, 7, 10, 11}));
  });
}

TEST(Placement, TailPerNodeKeepsOneWorkerPerNode) {
  // Over world ranks {0, 1, 2, 5}, node 0 contributes three members and
  // node 1 just one: three helpers per node must leave a worker on node 0
  // and skip node 1 entirely.
  testing::run_program(three_nodes_of_four(), [&](Rank& self) {
    const int me = self.world_rank();
    const bool member = me == 0 || me == 1 || me == 2 || me == 5;
    const mpi::Comm sub = self.split(self.world(), member ? 0 : -1, me);
    if (member) {
      EXPECT_EQ(placed_helpers(self, sub, 3), (std::vector<int>{1, 2}));
    }
  });
}

TEST(Placement, Validates) {
  // A shape that places fine with one helper per node still rejects a
  // count below one.
  testing::run_program(three_nodes_of_four(), [&](Rank& self) {
    auto pipeline = Pipeline::over(self, self.world());
    EXPECT_THROW(pipeline.with_node_placement(0), std::invalid_argument);
    EXPECT_THROW(pipeline.with_node_placement(-1), std::invalid_argument);
    EXPECT_EQ(placed_helpers(self, self.world(), 1),
              (std::vector<int>{3, 7, 11}));
  });
}

}  // namespace
}  // namespace ds::decouple
