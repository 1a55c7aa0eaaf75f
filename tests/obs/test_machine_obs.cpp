// Machine-level observability (ds::obs): config wiring, auto-instrumented
// spans from the runtime layers, resilience instants on the trace, and the
// metrics lifecycle flush from streams plus the machine collectors.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/machine_helpers.hpp"
#include "core/channel.hpp"
#include "core/stream.hpp"
#include "mpi/datatype.hpp"
#include "mpi/rank.hpp"
#include "resilience/fault.hpp"

namespace ds {
namespace {

using mpi::Rank;
using mpi::SendBuf;

TEST(MachineObs, OffByDefault) {
  mpi::Machine machine(testing::tiny_machine(2));
  EXPECT_EQ(machine.engine().trace(), nullptr);
  EXPECT_EQ(machine.metrics(), nullptr);
  EXPECT_FALSE(machine.metrics_enabled());
}

TEST(MachineObs, AutoSpansCoverComputeBlockingAndCollectives) {
  auto config = testing::tiny_machine(2);
  config.observability.trace = true;
  mpi::Machine machine(config);
  machine.run([](Rank& self) {
    std::uint64_t v = 1, sum = 0;
    if (self.world_rank() == 0) {
      self.compute(util::microseconds(50));
      self.send(self.world(), 1, 7, SendBuf::synthetic(1 << 20));
    } else {
      // Posted before the (large, rendezvous) send completes: the wait
      // blocks, producing a RecvBlocked span.
      self.recv(self.world(), 0, 7, mpi::RecvBuf::discard(1 << 20));
    }
    self.allreduce(self.world(), SendBuf::of(&v, 1), &sum,
                   mpi::reduce_sum<std::uint64_t>());
  });
  auto* trace = machine.engine().trace();
  ASSERT_NE(trace, nullptr);
  EXPECT_GT(trace->total(0, obs::SpanKind::Compute), 0);
  EXPECT_GT(trace->total(1, obs::SpanKind::RecvBlocked), 0);
  EXPECT_GT(trace->total(0, obs::SpanKind::Collective), 0);
  EXPECT_GT(trace->total(1, obs::SpanKind::Collective), 0);
  EXPECT_GT(trace->total(0, std::string("allreduce")), 0);
  // Every fiber closed its spans on the way out.
  EXPECT_EQ(trace->open_depth(0), 0u);
  EXPECT_EQ(trace->open_depth(1), 0u);
  const std::string json = trace->to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"allreduce\""), std::string::npos);
}

TEST(MachineObs, CrashAndRejoinLeaveInstantsOnTheWorldRankTrack) {
  auto config = testing::tiny_machine(3);
  config.observability.trace = true;
  config.faults.crash(1, util::microseconds(30))
      .restart(1, util::microseconds(60));
  mpi::Machine machine(config);
  machine.run([&](Rank& self) {
    // Plain compute keeps the program restart-transparent: the respawned
    // incarnation just runs it again.
    for (int i = 0; i < 10; ++i) self.compute(util::microseconds(10));
  });
  auto* trace = machine.engine().trace();
  ASSERT_NE(trace, nullptr);
  bool crash_seen = false, rejoin_seen = false;
  for (const auto& i : trace->instants()) {
    if (i.name == "crash" && i.rank == 1) crash_seen = true;
    if (i.name == "rejoin" && i.rank == 1) rejoin_seen = true;
  }
  EXPECT_TRUE(crash_seen);
  EXPECT_TRUE(rejoin_seen);
  // The crash closed whatever rank 1 had open...
  EXPECT_EQ(trace->open_depth(1), 0u);
  // ...and the restarted incarnation (a fresh engine pid) kept recording on
  // world-rank track 1: no span escapes the world's track range.
  bool post_restart_span = false;
  for (const auto& s : trace->intervals()) {
    EXPECT_LT(s.rank, 3);
    if (s.rank == 1 && s.begin >= util::microseconds(60))
      post_restart_span = true;
  }
  EXPECT_TRUE(post_restart_span);
  if (auto* m = machine.metrics(); m != nullptr) FAIL();  // metrics stayed off
}

TEST(MachineObs, StreamLifecycleFlushAndCollectors) {
  constexpr int kElements = 200;
  auto config = testing::tiny_machine(2);
  config.observability.metrics = true;
  mpi::Machine machine(config);
  machine.run([&](Rank& self) {
    stream::ChannelConfig cfg;
    const bool producer = self.world_rank() == 0;
    const stream::Channel ch =
        stream::Channel::create(self, self.world(), producer, !producer, cfg);
    stream::Stream s =
        stream::Stream::attach(ch, mpi::Datatype::bytes(32), {});
    if (producer) {
      for (int i = 0; i < kElements; ++i) s.isend_synthetic(self);
      s.terminate(self);
    } else {
      s.operate(self);
    }
  });
  auto* m = machine.metrics();
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(machine.engine().trace(), nullptr);  // metrics alone, no trace
  // Producer flushed at terminate, consumer at exhaustion.
  ASSERT_NE(m->find_counter("stream.elements_sent", 0), nullptr);
  EXPECT_EQ(m->find_counter("stream.elements_sent", 0)->value(),
            static_cast<std::uint64_t>(kElements));
  ASSERT_NE(m->find_counter("stream.elements_consumed", 1), nullptr);
  EXPECT_EQ(m->find_counter("stream.elements_consumed", 1)->value(),
            static_cast<std::uint64_t>(kElements));
  EXPECT_GT(m->counter_total("stream.term_messages"), 0u);
  // Machine collectors snapshot engine/fabric/pool state on collect().
  m->collect();
  ASSERT_NE(m->find_gauge("fabric.total_messages"), nullptr);
  EXPECT_GT(m->find_gauge("fabric.total_messages")->value(), 0.0);
  ASSERT_NE(m->find_gauge("engine.events_executed"), nullptr);
  EXPECT_GT(m->find_gauge("engine.events_executed")->value(), 0.0);
  ASSERT_NE(m->find_gauge("pool.send.created"), nullptr);
  const std::string json = m->to_json();
  EXPECT_NE(json.find("\"schema\":\"ds.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("stream.elements_sent"), std::string::npos);
}

/// The `stream.*` counters a role's lifecycle flush writes, each paired
/// with the stats() field it must equal.
using Series = std::vector<std::pair<std::string, std::uint64_t>>;

Series producer_series(const stream::StreamStats& s) {
  return {{"stream.elements_sent", s.elements_sent},
          {"stream.frames_sent", s.frames_sent},
          {"stream.credits_received", s.credits_received},
          {"stream.replayed_elements", s.replayed_elements},
          {"stream.failovers", s.failovers},
          {"stream.rebalances", s.rebalances},
          {"stream.retained_elements", s.retained_elements},
          {"stream.term_messages", s.term_messages}};
}

Series consumer_series(const stream::StreamStats& s) {
  return {{"stream.elements_consumed", s.elements_consumed},
          {"stream.ack_messages", s.ack_messages},
          {"stream.duplicates_dropped", s.duplicates_dropped},
          {"stream.dedup_entries", s.dedup_entries},
          {"stream.durable_acks", s.durable_acks},
          {"stream.term_messages", s.term_messages}};
}

TEST(MachineObs, ResilientChurnEmitsFailoverInstantsAndCounters) {
  // Two producers block-map onto two consumers under a credit window;
  // consumer 1 (world rank 3) crashes mid-stream, so its producer fails
  // over the flow to the survivor and replays. Both the trace instants and
  // the flushed resilience counters must record it, and every flushed
  // counter must equal the stats() field it reports.
  constexpr int kRanks = 4, kElements = 40;
  constexpr int kCrashed = 3;
  auto config = testing::tiny_machine(kRanks);
  config.observability = obs::ObsConfig::all();
  config.faults.crash(kCrashed, util::microseconds(40));
  mpi::Machine machine(config);
  std::vector<stream::StreamStats> stats(kRanks);
  machine.run([&](Rank& self) {
    stream::ChannelConfig cfg;
    cfg.checkpoint_interval = 4;  // resilient channel
    cfg.max_inflight = 4;         // credits and ack messages flow too
    const bool producer = self.world_rank() < 2;
    const stream::Channel ch =
        stream::Channel::create(self, self.world(), producer, !producer, cfg);
    stream::Stream s =
        stream::Stream::attach(ch, mpi::Datatype::bytes(32), {});
    try {
      if (producer) {
        for (int i = 0; i < kElements; ++i) {
          self.compute(util::microseconds(2));  // paced: crash lands mid-run
          s.isend_synthetic(self);
        }
        s.terminate(self);
      } else {
        s.operate(self);
      }
      stats[static_cast<std::size_t>(self.world_rank())] = s.stats();
    } catch (const mpi::RankFailure&) {
      // the crashed consumer unwinds here
    }
  });
  auto* trace = machine.engine().trace();
  ASSERT_NE(trace, nullptr);
  bool failover_seen = false;
  for (const auto& i : trace->instants()) {
    if (i.name == "failover") failover_seen = true;
  }
  EXPECT_TRUE(failover_seen);
  auto* m = machine.metrics();
  ASSERT_NE(m, nullptr);
  EXPECT_GE(m->counter_total("stream.failovers"), 1u);
  EXPECT_EQ(m->counter_total("resilience.crashes"), 1u);
  EXPECT_GT(m->counter_total("stream.credits_received"), 0u);
  EXPECT_GT(m->counter_total("stream.ack_messages"), 0u);

  for (int r = 0; r < kRanks; ++r) {
    const auto& s = stats[static_cast<std::size_t>(r)];
    const bool producer = r < 2;
    const Series own = producer ? producer_series(s) : consumer_series(s);
    const Series other = producer ? consumer_series(s) : producer_series(s);
    for (const auto& [name, value] : own) {
      const obs::Counter* c = m->find_counter(name, r);
      if (r == kCrashed) {
        // A crashed rank never completes its role, so it never flushes.
        EXPECT_EQ(c, nullptr) << name;
        continue;
      }
      ASSERT_NE(c, nullptr) << name << " on rank " << r;
      EXPECT_EQ(c->value(), value) << name << " on rank " << r;
    }
    // The flush writes only its own role's series.
    for (const auto& series : other) {
      if (series.first == "stream.term_messages") continue;
      EXPECT_EQ(m->find_counter(series.first, r), nullptr)
          << series.first << " on rank " << r;
    }
  }
}

}  // namespace
}  // namespace ds
