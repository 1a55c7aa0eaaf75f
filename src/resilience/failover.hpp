// Consumer-failover primitives (ds::resilience, layer 2).
//
// Recovery for decoupled streams is built from three small, independently
// testable pieces that core/stream composes:
//
//  * ReplayLog    — producer-side bounded retention: every flushed frame of a
//    resilient flow is retained (in its wire form) until the consumer
//    acknowledges epoch durability, then truncated. On failover the retained
//    frames are re-posted verbatim to the adopting consumer. A producer
//    creates a flow's log at the flow's first element, so it holds logs only
//    for the flows it sends on; a log that never retains a frame allocates
//    nothing. A log keeps its frames' bytes back to back in one buffer whose
//    capacity truncation keeps, so steady-state retention does not allocate
//    either.
//  * DedupFilter  — consumer-side exactly-once admission: every resilient
//    frame carries its flow id and starting sequence number; the filter
//    admits each (producer, flow, seq) at most once, so replay overlap can
//    never deliver an element to application code twice.
//  * CountMatrix  — the (producer x flow) element counts a term root gathers
//    from counted terms, nonzero cells only, sealed into one read-only
//    buffer that the announce of a resilient tree shares with every
//    consumer.
//  * failover_target — the deterministic, topology-aware adoption rule: the
//    next live consumer on the dead consumer's *node* (cyclically), falling
//    back to the next live consumer anywhere. Every rank evaluates it
//    locally against the machine's failure record and node structure and
//    arrives at the same answer, so no coordination protocol is needed to
//    agree on the new routing — and a same-node adopter keeps the replayed
//    flows on shared memory instead of pushing them across the fabric.
//
// A *flow* is the unit of replay and ordering: the elements one producer
// addressed to one original consumer index. After failover a flow keeps its
// identity (and its sequence space) while being physically delivered to the
// adopting consumer — dedup and termination accounting stay exact across
// repeated failures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "mpi/types.hpp"

namespace ds::mpi {
class Machine;
}
namespace ds::stream {
class Channel;
}

namespace ds::resilience {

/// One retained frame: where its wire bytes (headers included) sit in the
/// log's byte buffer, and the flow positions it covers.
struct RetainedFrame {
  std::uint64_t seq0 = 0;      ///< flow sequence of the first element
  std::uint32_t elements = 0;  ///< elements packed in the frame
  std::uint64_t wire = 0;      ///< simulated wire size of the frame
  std::size_t bytes = 0;       ///< length of the frame's bytes
};

/// Producer-side retention of unacknowledged frames for one flow: the
/// frames' bytes back to back in one buffer, plus one record per frame.
/// Empty until the first retain: construction allocates nothing.
class ReplayLog {
 public:
  /// Retain a flushed frame (copies `bytes` of `frame`). Frames must be
  /// retained in increasing seq0 order (the flush order guarantees this).
  void retain(std::uint64_t seq0, std::uint32_t elements, std::uint64_t wire,
              const std::byte* frame, std::size_t bytes);

  /// Durability acknowledgment: every element below `durable_seq` is safe at
  /// the consumer; frames entirely below it are dropped (capacity kept).
  void truncate(std::uint64_t durable_seq);

  /// Retained frames, oldest first; frame i's bytes follow frame i - 1's in
  /// bytes().
  [[nodiscard]] std::span<const RetainedFrame> frames() const noexcept {
    return frames_;
  }
  /// The retained frames' bytes, back to back, oldest first.
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::uint64_t durable_seq() const noexcept { return durable_; }
  [[nodiscard]] std::uint64_t retained_elements() const noexcept {
    return retained_elements_;
  }
  [[nodiscard]] std::size_t frame_count() const noexcept {
    return frames_.size();
  }

 private:
  std::vector<RetainedFrame> frames_;  ///< in seq0 order; capacity kept
  std::vector<std::byte> bytes_;       ///< frames_' bytes; capacity kept
  std::uint64_t durable_ = 0;
  std::uint64_t retained_elements_ = 0;
};

/// Consumer-side exactly-once admission by (producer, flow, seq). Each
/// tracked flow holds one cursor: the next expected sequence and the
/// highest durability ack already sent for the flow.
class DedupFilter {
 public:
  /// True when (producer, flow, seq) is new — the element may be delivered
  /// to application code; the flow cursor advances. False for a duplicate.
  bool admit(int producer, int flow, std::uint64_t seq);

  /// Pre-advance a flow cursor without counting duplicates: applied from a
  /// producer's flow-handoff message, which announces the durable point of
  /// an adopted flow so the replay's already-durable prefix (a replayed
  /// frame may straddle the durability boundary under manual acks) is
  /// skipped rather than re-delivered.
  void advance_to(int producer, int flow, std::uint64_t seq);

  /// Raise the flow's durable-ack mark to `upto`: true when `upto` is above
  /// the mark (an ack up to it is due), false for a repeated or lower one.
  bool mark_durable(int producer, int flow, std::uint64_t upto);

  /// Next expected sequence for the flow (0 when never seen).
  [[nodiscard]] std::uint64_t next_seq(int producer, int flow) const noexcept;
  [[nodiscard]] std::uint64_t duplicates_dropped() const noexcept {
    return duplicates_;
  }

  /// Drop the cursor for one (producer, flow), durable-ack mark included:
  /// the flow was handed back or rebalanced to another consumer, whose sync
  /// message now carries the cursor. Keeping the entry would leak memory
  /// under churn (every adopted flow would pin a cursor forever) — and the
  /// stat below is the proof retention stays bounded by the flows a
  /// consumer currently owns.
  void erase(int producer, int flow) { cursors_.erase(key(producer, flow)); }

  /// Tracked (producer, flow) cursors — the filter's entire memory
  /// footprint. Benches/tests assert this stays <= owned-flow count plus
  /// epoch/window slack under long churn runs.
  [[nodiscard]] std::size_t dedup_entries() const noexcept {
    return cursors_.size();
  }

  /// Visit every tracked flow as fn(producer, flow, next_seq) — the source
  /// of truth for "everything consumed so far" when flushing durability
  /// acknowledgments.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [k, cursor] : cursors_)
      fn(static_cast<int>(k >> 32), static_cast<int>(k & 0xFFFFFFFFu),
         cursor.next);
  }

 private:
  struct Cursor {
    std::uint64_t next = 0;     ///< next expected sequence
    std::uint64_t durable = 0;  ///< highest durability ack sent
  };

  [[nodiscard]] static std::uint64_t key(int producer, int flow) noexcept {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(producer))
            << 32) |
           static_cast<std::uint32_t>(flow);
  }

  std::unordered_map<std::uint64_t, Cursor> cursors_;
  std::uint64_t duplicates_ = 0;
};

/// The (producer x flow) count matrix of stream termination: how many
/// elements each producer sent on each flow. Every term root gathers one,
/// and resilient trees announce the aggregator's to every consumer. Only
/// nonzero cells are stored, so memory follows the routes in use instead of
/// P x C (a producer that talks to one consumer costs one cell). Rows
/// gather unordered from counted terms; seal() orders the cells by flow
/// into one read-only buffer once the counts are complete.
///
/// The matrix records which producers' rows it holds, for its whole life:
/// a root still waits for the term of every rooted producer without one.
/// The record is a flag per producer, allocated at the first row write, so
/// only a root that receives counted terms holds one; an adopted announce
/// holds every row.
///
/// The sealed cells are shared, not copied: an announce references the
/// buffer (share()) and each consumer keeps that reference (adopt()), so a
/// fan-out to C consumers holds one matrix, not C. A later row write that
/// changes a sealed matrix (a Block root that adopts a dead consumer's
/// producers, a takeover root) copies the cells first, so no other
/// holder's view changes; a repeated row copies nothing.
class CountMatrix {
 public:
  struct Cell {
    std::uint32_t producer = 0;
    std::uint32_t flow = 0;
    std::uint64_t count = 0;
  };

  CountMatrix() = default;
  CountMatrix(int producers, int flows) noexcept
      : producers_(static_cast<std::size_t>(producers)),
        flows_(static_cast<std::size_t>(flows)) {}

  /// Replace `producer`'s row with `counts` (one count per flow; zeros
  /// clear cells) and record the row as held. Idempotent: a repeated row
  /// leaves the matrix unchanged.
  void set_row(int producer, std::span<const std::uint64_t> counts);
  /// True once `producer`'s row was written, or an announce was adopted.
  [[nodiscard]] bool has_row(int producer) const noexcept {
    return every_row_ ||
           (!has_row_.empty() &&
            has_row_[static_cast<std::size_t>(producer)] != 0);
  }
  /// Order the cells by (flow, producer) into the shared read-only buffer;
  /// flow() needs it. Idempotent.
  void seal();
  [[nodiscard]] bool sealed() const noexcept { return owner_ != nullptr; }

  /// The nonzero cells of one flow, by producer (sealed matrices only).
  [[nodiscard]] std::span<const Cell> flow(int flow) const noexcept;
  /// Elements announced on one flow across all producers (sealed only).
  [[nodiscard]] std::uint64_t flow_total(int flow) const noexcept;
  /// One cell's count, 0 when the cell is empty (sealed only).
  [[nodiscard]] std::uint64_t count(int producer, int flow) const noexcept;
  [[nodiscard]] std::size_t cells() const noexcept {
    return sealed() ? cells_.size() : gathered_.size();
  }

  /// The announce of a sealed matrix: a reference to its cells, charged on
  /// the wire as the dense P x C counts (dense_bytes()), the size the
  /// announce is modeled at whatever its host form.
  [[nodiscard]] mpi::SharedBuf share() const;
  /// Adopt an announced matrix (sealed): keep `owner`'s reference to
  /// `cells`, the cell bytes of another matrix's share(), instead of
  /// copying them. Replaces whatever this matrix held; every row then
  /// counts as held. Returns false, leaving the matrix unchanged, when
  /// `owner` is null (no shared payload) or `cells` is not a whole,
  /// aligned array of cells.
  bool adopt(std::shared_ptr<const void> owner,
             std::span<const std::byte> cells);
  [[nodiscard]] std::size_t dense_bytes() const noexcept {
    return producers_ * flows_ * sizeof(std::uint64_t);
  }

 private:
  /// Seal `cells` (ordered by flow) as this matrix's own shared buffer.
  void own(std::vector<Cell> cells);

  std::size_t producers_ = 0;
  std::size_t flows_ = 0;
  std::vector<Cell> gathered_;         ///< gathering: rows in arrival order
  std::vector<std::uint8_t> has_row_;  ///< per producer: its row was written
  bool every_row_ = false;             ///< an adopted announce: all rows held
  /// Sealed: the cells by (flow, producer), read-only, and the reference
  /// that keeps them alive (this matrix's own buffer, or an announcer's).
  std::shared_ptr<const void> owner_;
  std::span<const Cell> cells_;
};

/// True when consumer slot `c` is available: its rank is live in
/// `machine`'s failure record, the only membership signal.
[[nodiscard]] bool consumer_available(const stream::Channel& channel, int c,
                                      const mpi::Machine& machine);

/// The deterministic adoption rule, topology-aware: the first available
/// consumer after `dead_consumer` (cyclically) that shares its node, else
/// the first available consumer anywhere. "Available" means the slot's rank
/// is live in `machine`'s failure record, so the same rule serves crash
/// failover and rank rejoin (the rule re-admits a respawned rank
/// automatically). With no locality (ranks_per_node = 0) — or when all
/// consumers share one node — this is exactly the plain cyclic-next rule.
/// Returns -1 when no consumer of the channel is available (unrecoverable).
[[nodiscard]] int failover_target(const stream::Channel& channel,
                                  int dead_consumer,
                                  const mpi::Machine& machine);

/// Who aggregates producer terms on a resilient channel: the first
/// available (live) consumer index (consumer 0 while it survives). -1 when
/// no consumer is available.
[[nodiscard]] int effective_aggregator(const stream::Channel& channel,
                                       const mpi::Machine& machine);

}  // namespace ds::resilience
