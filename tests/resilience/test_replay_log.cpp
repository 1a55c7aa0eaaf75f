// ReplayLog / DedupFilter / CountMatrix unit semantics (ds::resilience
// layer 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "mpi/types.hpp"
#include "resilience/failover.hpp"

namespace ds::resilience {
namespace {

[[nodiscard]] std::vector<std::byte> frame_bytes(std::uint8_t fill,
                                                 std::size_t n) {
  std::vector<std::byte> buf(n);
  std::memset(buf.data(), fill, n);
  return buf;
}

TEST(ReplayLog, RetainsUntilDurableTruncation) {
  ReplayLog log;
  const auto f0 = frame_bytes(0xA0, 32);
  const auto f1 = frame_bytes(0xA1, 40);
  const auto f2 = frame_bytes(0xA2, 24);
  log.retain(0, 8, 100, f0.data(), f0.size());
  log.retain(8, 8, 110, f1.data(), f1.size());
  log.retain(16, 4, 60, f2.data(), f2.size());
  EXPECT_EQ(log.frame_count(), 3u);
  EXPECT_EQ(log.retained_elements(), 20u);

  // An ack mid-frame keeps the straddling frame retained.
  log.truncate(10);
  EXPECT_EQ(log.durable_seq(), 10u);
  EXPECT_EQ(log.frame_count(), 2u);
  EXPECT_EQ(log.retained_elements(), 12u);
  EXPECT_EQ(log.frames().front().seq0, 8u);
  // Retained bytes are the frames as posted, back to back: f1, then f2.
  EXPECT_EQ(log.frames()[0].bytes, f1.size());
  EXPECT_EQ(log.frames()[1].bytes, f2.size());
  std::vector<std::byte> expected = f1;
  expected.insert(expected.end(), f2.begin(), f2.end());
  EXPECT_TRUE(std::ranges::equal(log.bytes(), expected));

  // Out-of-order (stale) acks are ignored.
  log.truncate(4);
  EXPECT_EQ(log.durable_seq(), 10u);
  EXPECT_EQ(log.frame_count(), 2u);

  log.truncate(20);
  EXPECT_EQ(log.frame_count(), 0u);
  EXPECT_EQ(log.retained_elements(), 0u);
  EXPECT_TRUE(log.bytes().empty());
}

TEST(ReplayLog, TruncationKeepsTheBufferForTheNextRetain) {
  // Steady state: a frame retained after a truncation reuses the bytes the
  // truncated frame held, so retention allocates nothing. Growing the
  // buffer would move it.
  ReplayLog log;
  const auto frame = frame_bytes(0x55, 512);
  log.retain(0, 4, 600, frame.data(), frame.size());
  const std::byte* buffer = log.bytes().data();
  log.truncate(4);
  EXPECT_TRUE(log.bytes().empty());
  log.retain(4, 4, 600, frame.data(), frame.size());
  EXPECT_EQ(log.frame_count(), 1u);
  EXPECT_EQ(log.bytes().data(), buffer);
  EXPECT_TRUE(std::ranges::equal(log.bytes(), frame));
}

TEST(ReplayLog, EmptyLogAllocatesNothing) {
  // A producer keeps one log per flow but retains frames on the few flows
  // it routes to; an empty log must cost no heap (std::deque allocates its
  // first block on construction, so it cannot be nothrow-constructible).
  EXPECT_TRUE(std::is_nothrow_default_constructible_v<ReplayLog>);
  const ReplayLog log;
  EXPECT_EQ(log.frame_count(), 0u);
  EXPECT_TRUE(log.frames().empty());
}

TEST(DedupFilter, AdmitsEachSequenceOnce) {
  DedupFilter filter;
  EXPECT_TRUE(filter.admit(1, 0, 0));
  EXPECT_TRUE(filter.admit(1, 0, 1));
  // Replay overlap: the same sequences come again.
  EXPECT_FALSE(filter.admit(1, 0, 0));
  EXPECT_FALSE(filter.admit(1, 0, 1));
  EXPECT_TRUE(filter.admit(1, 0, 2));
  EXPECT_EQ(filter.duplicates_dropped(), 2u);
  // Flows are independent per (producer, flow).
  EXPECT_TRUE(filter.admit(2, 0, 0));
  EXPECT_TRUE(filter.admit(1, 3, 0));
  EXPECT_EQ(filter.next_seq(1, 0), 3u);
  EXPECT_EQ(filter.next_seq(9, 9), 0u);
}

TEST(DedupFilter, AdvanceToSkipsDurablePrefixWithoutCountingDuplicates) {
  // The flow-handoff path: the adopter learns the durable point before the
  // replayed frames arrive, so the durable prefix is filtered silently.
  DedupFilter filter;
  filter.advance_to(0, 2, 10);
  EXPECT_FALSE(filter.admit(0, 2, 8));
  EXPECT_FALSE(filter.admit(0, 2, 9));
  EXPECT_TRUE(filter.admit(0, 2, 10));
  EXPECT_EQ(filter.duplicates_dropped(), 2u);
  // advance_to never regresses a cursor.
  filter.advance_to(0, 2, 5);
  EXPECT_TRUE(filter.admit(0, 2, 11));
}

TEST(DedupFilter, ForEachVisitsEveryTrackedFlow) {
  DedupFilter filter;
  ASSERT_TRUE(filter.admit(3, 1, 0));
  ASSERT_TRUE(filter.admit(4, 0, 0));
  ASSERT_TRUE(filter.admit(4, 0, 1));
  int seen = 0;
  std::uint64_t total = 0;
  filter.for_each([&](int producer, int flow, std::uint64_t next) {
    ++seen;
    total += next;
    EXPECT_TRUE((producer == 3 && flow == 1) || (producer == 4 && flow == 0));
  });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(total, 3u);
}

TEST(DedupFilter, DurableMarkOnlyRisesAndLeavesWithTheCursor) {
  DedupFilter filter;
  ASSERT_TRUE(filter.admit(2, 1, 0));
  EXPECT_TRUE(filter.mark_durable(2, 1, 8));
  // A repeated or lower mark sends no second ack.
  EXPECT_FALSE(filter.mark_durable(2, 1, 8));
  EXPECT_FALSE(filter.mark_durable(2, 1, 4));
  EXPECT_TRUE(filter.mark_durable(2, 1, 16));
  // The mark belongs to its flow's cursor: another flow starts at 0.
  EXPECT_TRUE(filter.mark_durable(2, 0, 8));
  EXPECT_EQ(filter.dedup_entries(), 2u);
  // Erasing the cursor (a handback) drops the mark with it.
  filter.erase(2, 1);
  EXPECT_EQ(filter.dedup_entries(), 1u);
  EXPECT_EQ(filter.next_seq(2, 1), 0u);
  EXPECT_TRUE(filter.mark_durable(2, 1, 8));
}

/// Cells of a matrix as (producer, flow, count) triples, flow by flow.
[[nodiscard]] std::vector<std::vector<std::uint64_t>> cells_of(
    const CountMatrix& m, int flows) {
  std::vector<std::vector<std::uint64_t>> out;
  for (int f = 0; f < flows; ++f)
    for (const CountMatrix::Cell& c : m.flow(f))
      out.push_back({c.producer, c.flow, c.count});
  return out;
}

TEST(CountMatrix, AdoptedMatrixReadsTheAnnouncersCells) {
  // One flow per producer: 6 of 18 cells set. The announce is a reference
  // to the sealed cells, charged on the wire as the dense 6 x 3 counts; the
  // adopter reads the announcer's storage and re-announces it unchanged.
  CountMatrix agg(6, 3);
  for (int p = 5; p >= 0; --p) {  // rows arrive in any order
    std::vector<std::uint64_t> row(3, 0);
    row[static_cast<std::size_t>(p % 3)] = 10u + static_cast<std::uint64_t>(p);
    agg.set_row(p, row);
  }
  agg.seal();
  EXPECT_EQ(agg.cells(), 6u);
  EXPECT_EQ(agg.flow_total(1), 11u + 14u);
  EXPECT_EQ(agg.count(4, 1), 14u);
  EXPECT_EQ(agg.count(4, 0), 0u);
  const mpi::SharedBuf announce = agg.share();
  EXPECT_EQ(announce.bytes.size(), 6 * sizeof(CountMatrix::Cell));
  EXPECT_EQ(announce.wire_bytes, agg.dense_bytes());

  CountMatrix copy(6, 3);
  ASSERT_TRUE(copy.adopt(announce.owner, announce.bytes));
  EXPECT_TRUE(copy.sealed());
  for (int f = 0; f < 3; ++f)
    EXPECT_EQ(copy.flow(f).data(), agg.flow(f).data()) << "flow " << f;
  EXPECT_EQ(cells_of(copy, 3), cells_of(agg, 3));
  EXPECT_EQ(cells_of(copy, 3).front(),
            (std::vector<std::uint64_t>{0, 0, 10}));
  const mpi::SharedBuf again = copy.share();
  EXPECT_EQ(again.owner, announce.owner);
  EXPECT_EQ(again.bytes.data(), announce.bytes.data());
  EXPECT_EQ(again.wire_bytes, announce.wire_bytes);
}

TEST(CountMatrix, FullMatrixAnnounceIsChargedAsTheDenseCounts) {
  // Every cell set: the shared cells (16 bytes each) outweigh the dense
  // counts (8 bytes each), and the wire still carries the dense size.
  CountMatrix agg(4, 3);
  for (int p = 0; p < 4; ++p) {
    const std::uint64_t first = 1u + static_cast<std::uint64_t>(p);
    agg.set_row(p, std::vector<std::uint64_t>{first, 2, 3});
  }
  agg.seal();
  const mpi::SharedBuf announce = agg.share();
  EXPECT_GT(announce.bytes.size(), agg.dense_bytes());
  EXPECT_EQ(announce.wire_bytes, agg.dense_bytes());
  CountMatrix copy(4, 3);
  ASSERT_TRUE(copy.adopt(announce.owner, announce.bytes));
  EXPECT_EQ(copy.cells(), 12u);
  EXPECT_EQ(cells_of(copy, 3), cells_of(agg, 3));
  EXPECT_EQ(copy.flow_total(0), 1u + 2u + 3u + 4u);
}

TEST(CountMatrix, AdoptedAnnounceReplacesAStaleGatheredRow) {
  // An all-zero matrix shares no cells, yet it is a real announce: it
  // seals the adopter and drops the row it had gathered.
  CountMatrix agg(3, 4);
  for (int p = 0; p < 3; ++p) agg.set_row(p, std::vector<std::uint64_t>(4, 0));
  agg.seal();
  const mpi::SharedBuf announce = agg.share();
  EXPECT_TRUE(announce.bytes.empty());
  ASSERT_NE(announce.owner, nullptr);
  CountMatrix copy(3, 4);
  copy.set_row(1, std::vector<std::uint64_t>{0, 7, 0, 0});  // a stale term
  ASSERT_TRUE(copy.adopt(announce.owner, announce.bytes));
  EXPECT_TRUE(copy.sealed());
  EXPECT_EQ(copy.cells(), 0u);
  EXPECT_EQ(copy.flow_total(1), 0u);
}

TEST(CountMatrix, RowWritesCopyTheSharedCellsAndLeaveOtherHoldersAlone) {
  CountMatrix agg(3, 2);
  agg.set_row(0, std::vector<std::uint64_t>{4, 0});
  agg.set_row(2, std::vector<std::uint64_t>{0, 6});
  agg.seal();
  const auto announced = cells_of(agg, 2);
  const mpi::SharedBuf announce = agg.share();
  CountMatrix copy(3, 2);
  ASSERT_TRUE(copy.adopt(announce.owner, announce.bytes));

  // A repeated row (a re-sent term) copies nothing.
  copy.set_row(0, std::vector<std::uint64_t>{4, 0});
  EXPECT_EQ(copy.flow(0).data(), agg.flow(0).data());

  // A takeover root rewrites a row: its own copy changes, the announcer's
  // cells do not.
  copy.set_row(1, std::vector<std::uint64_t>{2, 0});
  EXPECT_EQ(cells_of(copy, 2), (std::vector<std::vector<std::uint64_t>>{
                                   {0, 0, 4}, {1, 0, 2}, {2, 1, 6}}));
  EXPECT_EQ(cells_of(agg, 2), announced);
  EXPECT_NE(copy.share().owner, announce.owner);

  // And the other way round: the announcer's rewrite leaves the adopter's
  // view as it was.
  CountMatrix other(3, 2);
  ASSERT_TRUE(other.adopt(announce.owner, announce.bytes));
  agg.set_row(2, std::vector<std::uint64_t>{0, 0});
  EXPECT_EQ(cells_of(agg, 2),
            (std::vector<std::vector<std::uint64_t>>{{0, 0, 4}}));
  EXPECT_EQ(cells_of(other, 2), announced);
}

TEST(CountMatrix, RowRewritesAreIdempotentBeforeAndAfterSealing) {
  CountMatrix m(3, 3);
  m.set_row(2, std::vector<std::uint64_t>{5, 0, 6});
  m.set_row(0, std::vector<std::uint64_t>{0, 4, 0});
  m.set_row(2, std::vector<std::uint64_t>{5, 0, 6});  // resent term
  m.seal();
  EXPECT_EQ(m.cells(), 3u);
  m.set_row(0, std::vector<std::uint64_t>{0, 4, 0});  // resent after sealing
  EXPECT_EQ(m.cells(), 3u);
  // A changed row moves cells and keeps the flow order.
  m.set_row(0, std::vector<std::uint64_t>{1, 0, 9});
  EXPECT_EQ(cells_of(m, 3),
            (std::vector<std::vector<std::uint64_t>>{
                {0, 0, 1}, {2, 0, 5}, {0, 2, 9}, {2, 2, 6}}));
  EXPECT_TRUE(m.flow(1).empty());
}

TEST(CountMatrix, RecordsHeldRowsAcrossSealingAndAdoption) {
  CountMatrix m(3, 2);
  EXPECT_FALSE(m.has_row(0));
  // A row of zeros stores no cell but is a held row all the same.
  m.set_row(1, std::vector<std::uint64_t>{0, 0});
  EXPECT_TRUE(m.has_row(1));
  EXPECT_FALSE(m.has_row(0));
  m.seal();
  EXPECT_TRUE(m.has_row(1));
  EXPECT_FALSE(m.has_row(2));
  // A row written after sealing (a Block root adopting producers) counts.
  m.set_row(2, std::vector<std::uint64_t>{0, 5});
  EXPECT_TRUE(m.has_row(2));
  EXPECT_FALSE(m.has_row(0));

  // An adopted announce holds every producer's final row.
  const mpi::SharedBuf announce = m.share();
  CountMatrix copy(3, 2);
  ASSERT_TRUE(copy.adopt(announce.owner, announce.bytes));
  for (int p = 0; p < 3; ++p) EXPECT_TRUE(copy.has_row(p)) << p;
}

TEST(CountMatrix, AdoptRejectsAPayloadThatIsNotSharedCells) {
  CountMatrix m(2, 2);
  m.set_row(0, std::vector<std::uint64_t>{3, 0});
  m.seal();
  const mpi::SharedBuf announce = m.share();
  CountMatrix copy(2, 2);
  // No owner: a copied or synthetic payload is no shared announce.
  EXPECT_FALSE(copy.adopt(nullptr, announce.bytes));
  // Not a whole number of cells.
  EXPECT_FALSE(copy.adopt(announce.owner, announce.bytes.first(
                                              announce.bytes.size() - 1)));
  EXPECT_FALSE(copy.sealed());
  EXPECT_FALSE(copy.has_row(0));
}

}  // namespace
}  // namespace ds::resilience
