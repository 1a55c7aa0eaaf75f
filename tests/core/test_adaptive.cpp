#include "core/adaptive.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "common/machine_helpers.hpp"

namespace ds::stream {
namespace {

using mpi::Rank;

struct Harness {
  std::uint64_t records_consumed = 0;
  std::uint64_t elements_consumed = 0;
};

/// Run a 1-producer/1-consumer adaptive stream; `produce` drives the
/// batcher; returns consumption counters.
template <typename Produce>
Harness run_adaptive(const AdaptiveConfig& cfg, std::size_t record_bytes,
                     Produce&& produce,
                     const mpi::MachineConfig& machine = testing::tiny_machine(2)) {
  Harness h;
  testing::run_program(machine, [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    // The batcher's controller reads the virtual time its isends charge;
    // transport coalescing defers those charges to frame flushes, which
    // would starve the overhead signal. These tests pin one element per
    // frame (coalesce_budget = 0, charged o + o_s at each isend) so they
    // exercise the batcher controller in isolation (the batcher x
    // coalescing composition is covered in test_stream_coalesce).
    ChannelConfig ccfg;
    ccfg.coalesce_budget = 0;
    const Channel ch =
        Channel::create(self, self.world(), producer, !producer, ccfg);
    const mpi::Datatype element = mpi::Datatype::bytes(
        AdaptiveBatcher::element_bytes(record_bytes, cfg.max_records));
    auto op = [&](const StreamElement& el) {
      ++h.elements_consumed;
      h.records_consumed += adaptive_record_count(el);
    };
    Stream s = Stream::attach(ch, element, producer ? Operator{} : Operator{op});
    if (producer) {
      AdaptiveBatcher batcher(s, record_bytes, cfg);
      produce(self, batcher);
      batcher.finish(self);
    } else {
      (void)s.operate(self);
    }
  });
  return h;
}

TEST(Adaptive, AllRecordsArriveExactlyOnce) {
  AdaptiveConfig cfg;
  cfg.initial_records = 4;
  const auto h = run_adaptive(cfg, 64, [](Rank& self, AdaptiveBatcher& b) {
    for (int i = 0; i < 1000; ++i) b.push(self);
  });
  EXPECT_EQ(h.records_consumed, 1000u);
  EXPECT_GT(h.elements_consumed, 0u);
  EXPECT_LT(h.elements_consumed, 1000u);  // batching happened
}

TEST(Adaptive, PartialBatchFlushesOnFinish) {
  AdaptiveConfig cfg;
  cfg.initial_records = 64;
  const auto h = run_adaptive(cfg, 32, [](Rank& self, AdaptiveBatcher& b) {
    for (int i = 0; i < 10; ++i) b.push(self);  // far below one batch
  });
  EXPECT_EQ(h.records_consumed, 10u);
  EXPECT_EQ(h.elements_consumed, 1u);
}

TEST(Adaptive, GrowsBatchWhenOverheadDominates) {
  // Producer emits records with essentially no compute between them: the
  // injection overhead dominates and the controller must grow the batch.
  AdaptiveConfig cfg;
  cfg.initial_records = 1;
  cfg.window = 4;
  std::uint32_t final_batch = 0;
  run_adaptive(cfg, 16, [&](Rank& self, AdaptiveBatcher& b) {
    for (int i = 0; i < 2000; ++i) b.push(self);
    final_batch = b.current_batch();
  });
  EXPECT_GT(final_batch, 1u);
}

TEST(Adaptive, ShrinksBatchWhenFlowTooCoarse) {
  // Slow production with a large batch: flush gaps exceed the target
  // interval, so the controller shrinks toward finer elements.
  AdaptiveConfig cfg;
  cfg.initial_records = 512;
  cfg.window = 2;
  cfg.max_flush_interval = util::microseconds(50);
  std::uint32_t final_batch = 0;
  run_adaptive(cfg, 16, [&](Rank& self, AdaptiveBatcher& b) {
    for (int i = 0; i < 16 * 512; ++i) {
      self.compute(util::microseconds(1));
      b.push(self);
    }
    final_batch = b.current_batch();
  });
  EXPECT_LT(final_batch, 512u);
}

TEST(Adaptive, RespectsBounds) {
  AdaptiveConfig cfg;
  cfg.min_records = 8;
  cfg.max_records = 32;
  cfg.initial_records = 8;
  cfg.window = 2;
  std::uint32_t final_batch = 0;
  run_adaptive(cfg, 16, [&](Rank& self, AdaptiveBatcher& b) {
    for (int i = 0; i < 5000; ++i) b.push(self);  // overhead-heavy -> grow
    final_batch = b.current_batch();
  });
  EXPECT_GE(final_batch, 8u);
  EXPECT_LE(final_batch, 32u);
}

TEST(Adaptive, RejectsUndersizedElement) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(64), {});
    if (producer) {
      AdaptiveConfig cfg;
      cfg.max_records = 1000;  // needs far more than 64 bytes
      EXPECT_THROW(AdaptiveBatcher(s, 64, cfg), std::invalid_argument);
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
}

TEST(Adaptive, RejectsBadBounds) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(1 << 16), {});
    if (producer) {
      AdaptiveConfig cfg;
      cfg.min_records = 16;
      cfg.max_records = 8;
      EXPECT_THROW(AdaptiveBatcher(s, 8, cfg), std::invalid_argument);
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
}

TEST(Adaptive, ValidatesBoundsBeforeClampingTarget) {
  // Regression: the ctor used to clamp initial_records in the member-init
  // list *before* validating min <= max — UB on bad bounds. Validation must
  // win whatever initial_records is.
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(1 << 16), {});
    if (producer) {
      for (const std::uint32_t initial : {0u, 8u, 16u, 1000u}) {
        AdaptiveConfig cfg;
        cfg.min_records = 16;
        cfg.max_records = 8;  // inverted bounds
        cfg.initial_records = initial;
        EXPECT_THROW(AdaptiveBatcher(s, 8, cfg), std::invalid_argument);
      }
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
}

TEST(Adaptive, RejectsNonMultiplicativeGrowth) {
  testing::run_program(testing::tiny_machine(2), [&](Rank& self) {
    const bool producer = self.world_rank() == 0;
    const Channel ch = Channel::create(self, self.world(), producer, !producer);
    Stream s = Stream::attach(ch, mpi::Datatype::bytes(1 << 16), {});
    if (producer) {
      AdaptiveConfig cfg;
      cfg.growth = 1.0;  // would leave the controller unable to move
      EXPECT_THROW(AdaptiveBatcher(s, 8, cfg), std::invalid_argument);
      s.terminate(self);
    } else {
      (void)s.operate(self);
    }
  });
}

TEST(Adaptive, ShrinkMakesProgressDownToMinRecords) {
  // Regression for the truncated-quotient shrink: with a growth factor just
  // above 1 the batch must still walk all the way down to min_records under
  // sustained coarse flow, never sticking above the floor.
  AdaptiveConfig cfg;
  cfg.min_records = 1;
  cfg.initial_records = 12;
  cfg.growth = 1.05;  // smallest steps: truncation effects dominate
  cfg.window = 2;
  cfg.max_flush_interval = util::microseconds(10);
  std::uint32_t final_batch = 0;
  run_adaptive(cfg, 16, [&](Rank& self, AdaptiveBatcher& b) {
    for (int i = 0; i < 1200; ++i) {
      self.compute(util::microseconds(30));  // every flush gap too coarse
      b.push(self);
    }
    final_batch = b.current_batch();
  });
  EXPECT_EQ(final_batch, cfg.min_records);
}

TEST(Adaptive, FirstWindowStartsAtFirstPushNotSimTimeZero) {
  // Regression: window_start_ defaulted to sim-time 0, so a batcher created
  // late saw the pre-history as elapsed production time, diluting
  // overhead_fraction and skipping the grow decision in its first window.
  AdaptiveConfig cfg;
  cfg.initial_records = 1;
  cfg.window = 8;
  std::uint32_t batch_after_first_window = 0;
  run_adaptive(cfg, 16, [&](Rank& self, AdaptiveBatcher& b) {
    self.compute(util::milliseconds(50));  // long pre-batcher history
    // Exactly one controller window of overhead-dominated pushes.
    for (std::uint32_t i = 0; i < cfg.window; ++i) b.push(self);
    batch_after_first_window = b.current_batch();
  });
  EXPECT_GT(batch_after_first_window, 1u);
}

TEST(Adaptive, HeaderDecodeHandlesSyntheticElements) {
  const StreamElement synthetic{nullptr, 128, 0};
  EXPECT_EQ(adaptive_record_count(synthetic), 0u);
}

}  // namespace
}  // namespace ds::stream
