// MPIStream channels (paper Sec. III-A, step 1).
//
// A channel is the communication fabric between two disjoint groups of a
// parent communicator: data producers and data consumers. Creation is
// collective over the parent (mirroring MPIStream_CreateChannel's
// is_data_producer / is_data_consumer flags); every member learns both
// groups and non-members receive an inert handle.
//
// Producers address consumers through a mapping policy:
//  * Block    — producer p always streams to consumer floor(p*C/P); stable
//               peer, preserves per-producer element order at the consumer.
//  * Directed — producer p addresses a consumer per element (isend_to), e.g.
//               rotating over all consumers to spread load; order preserved
//               only per (producer, consumer) pair.
//
// This is the implementation layer: application code normally goes through
// the typed RAII facade in core/decouple.hpp (decouple::Pipeline), which
// owns channel lifetime and role dispatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "mpi/comm.hpp"
#include "mpi/rank.hpp"
#include "util/time.hpp"

namespace ds::stream {

struct ChannelConfig {
  /// Distinguishes channels created over the same parent communicator; every
  /// concurrently live channel on one parent needs a distinct id.
  std::uint64_t channel_id = 0;

  /// Block    — producer p streams to one fixed consumer, route(p), the only
  ///            one its isend_to may address.
  /// Directed — producers address consumers per element via isend_to (isend
  ///            goes to route(p)); termination is aggregated (see term_*
  ///            metadata below).
  enum class Mapping { Block, Directed };
  Mapping mapping = Mapping::Block;

  /// Producer-side flow-control window: the maximum number of elements a
  /// producer may have in flight (sent but not yet consumed) before its next
  /// injection blocks on a credit returned over the stream's ack context.
  /// 0 disables backpressure (paper default: unbounded injection).
  /// Contract: credits come from consumption, so consumers of a
  /// flow-controlled stream must consume every element (operate to
  /// exhaustion); a consumer that stops with more than a window of elements
  /// outstanding leaves the producer blocked.
  ///
  /// The flow controller doubles the effective window on credit stalls, up
  /// to kWindowGrowthCap times this value, and decays it back toward, never
  /// below, it. Consumers return credits in batches (one ack message per
  /// batch per producer), starting at kAckBatch and tracking the observed
  /// frame occupancy between half the liveness clamp and the clamp
  /// ceil(max_inflight / spread), where spread is the number of consumers a
  /// producer can route to (1 under Block, the consumer count under
  /// Directed): a blocked producer then always has some consumer holding a
  /// full batch. Remaining credits are flushed whenever a termination
  /// message is observed and when the stream is exhausted, so the producer
  /// window never stalls on the tail.
  std::uint32_t max_inflight = 0;

  /// Stream epochs / consumer failover (ds::resilience): when nonzero, every
  /// element of the stream travels in a framed message stamped with its flow
  /// id and sequence number, producers cut an epoch every
  /// `checkpoint_interval` elements per flow and retain unacknowledged
  /// frames for replay, and on an injected consumer crash the producers
  /// rebind the dead consumer's flows to the deterministic failover target,
  /// replay the open epoch, and the receiver dedupes by (flow, seq) so
  /// delivery stays exactly-once from the application's view. A consumer
  /// acknowledges durability at every epoch boundary, or, once it registers
  /// a durable point (Stream::set_durable_point), only through that hook.
  /// 0 (default) disables all resilience machinery — the fault-free hot
  /// path is untouched.
  std::uint32_t checkpoint_interval = 0;

  [[nodiscard]] bool resilient() const noexcept {
    return checkpoint_interval > 0;
  }

  /// Per-element injection overhead `o` (paper Eq. 4): element construction
  /// plus the library call, charged to the producer at every stream_isend.
  static constexpr util::SimTime kInjectOverhead = util::nanoseconds(150);
  /// Frame budget every producer starts from, in wire bytes (fits well
  /// under the default eager threshold; ~28 64-byte elements per frame).
  /// Every element travels in a frame — one fabric message of
  /// length-prefixed sub-records — and a producer packs same-destination
  /// elements injected at the same virtual instant into one frame of up to
  /// the budget and kCoalesceMaxElements elements. A frame leaves once no
  /// further element fits, when the producer terminates or blocks on a
  /// credit, and — via a same-instant backstop event — the moment the
  /// producing fiber yields the CPU, so elements are never delayed in
  /// virtual time beyond the instant they were injected at. An element
  /// larger than the budget travels in a frame of its own and pays its
  /// injection overhead plus one per-message o_s (the paper's fine-grained
  /// cost model). The flow controller retunes the budget once per 16 frame
  /// flushes: doubling it (up to kCoalesceGrowthCap times this value) while
  /// bursts keep filling frames, halving it (down to 256 bytes) while the
  /// backstop keeps flushing near-empty ones.
  static constexpr std::uint32_t kCoalesceBudget = 2048;
  /// Element-count cap per frame (a frame never holds more than this many
  /// elements regardless of byte budget).
  static constexpr std::uint32_t kCoalesceMaxElements = 128;
  /// The flow controller may grow a frame budget to at most this multiple
  /// of kCoalesceBudget.
  static constexpr std::uint32_t kCoalesceGrowthCap = 4;
  /// The flow controller may grow the effective credit window to at most
  /// this multiple of max_inflight (and never below it): the consumer-side
  /// liveness clamp is derived from the configured window, so growing — but
  /// never shrinking past — the configured value keeps the clamp valid.
  static constexpr std::uint32_t kWindowGrowthCap = 4;
  /// Credit batch a flow-controlled consumer starts at (clamped to the
  /// liveness clamp), and the floor of the batch it tracks.
  static constexpr std::uint32_t kAckBatch = 4;
};

class Channel {
 public:
  Channel() = default;

  /// Collective over `parent`: every member calls with its role. A rank may
  /// be producer, consumer, or neither (inert handle); producer+consumer on
  /// the same rank is rejected (the groups must be disjoint).
  [[nodiscard]] static Channel create(mpi::Rank& self, const mpi::Comm& parent,
                                      bool is_producer, bool is_consumer,
                                      ChannelConfig config = {});

  /// Local-only (non-collective) reconstruction of the channel create()
  /// built: `role_of(parent_rank)` must return the role each member passed
  /// at create time (0 = neither, 1 = producer, 2 = consumer). A respawned
  /// fiber rejoining a live channel cannot re-enter the creation collective
  /// — its peers are long past it — but in every decoupled program the role
  /// assignment is a pure function of rank, so the restarted rank rebuilds
  /// an identical handle (same derived context) without touching the
  /// fabric.
  [[nodiscard]] static Channel attach(
      mpi::Rank& self, const mpi::Comm& parent,
      const std::function<std::int8_t(int)>& role_of, ChannelConfig config = {});

  /// Collective over the channel members: quiesce and release (paper's
  /// MPIStream_FreeChannel). No-op for non-members.
  void free(mpi::Rank& self);

  [[nodiscard]] bool valid() const noexcept { return comm_.valid(); }
  [[nodiscard]] const ChannelConfig& config() const noexcept { return config_; }
  /// Communicator spanning producers (ranks [0, P)) then consumers
  /// (ranks [P, P+C)).
  [[nodiscard]] const mpi::Comm& comm() const noexcept { return comm_; }
  [[nodiscard]] int producer_count() const noexcept { return producer_count_; }
  [[nodiscard]] int consumer_count() const noexcept { return consumer_count_; }

  /// This rank's producer index, or -1.
  [[nodiscard]] int my_producer_index(const mpi::Rank& self) const noexcept;
  /// This rank's consumer index, or -1.
  [[nodiscard]] int my_consumer_index(const mpi::Rank& self) const noexcept;

  /// Consumer index producer `p`'s isend elements are routed to: its Block
  /// consumer, which is also a Directed producer's default peer.
  [[nodiscard]] int route(int producer) const noexcept {
    return block_route(producer, producer_count_, consumer_count_);
  }

  /// The Block assignment in closed form: the consumer a producer streams
  /// to when `producer_count` producers block-map onto `consumer_count`
  /// consumers. Exposed so code holding an inert handle (e.g. a chain stage
  /// that is neither endpoint) can reproduce the routing without a channel.
  [[nodiscard]] static int block_route(int producer, int producer_count,
                                       int consumer_count) noexcept {
    return static_cast<int>(static_cast<long long>(producer) * consumer_count /
                            producer_count);
  }

  // ---- termination routing metadata --------------------------------------
  // Every producer sends one counted term to its term root (see
  // core/stream.hpp). Under Block mapping a producer has exactly one peer
  // consumer, which is its root. Directed producers can reach every
  // consumer; broadcasting a term from each of P producers to each of C
  // consumers would cost O(P*C) messages. Directed termination instead
  // aggregates: every producer's term goes to a designated aggregator
  // consumer, which fans the per-consumer totals down a binary tree over
  // the consumers — O(P + C) messages total, O(log C) hops on the
  // aggregation path.

  /// True when termination aggregates at one root and distributes down the
  /// consumer tree (Directed).
  [[nodiscard]] bool tree_termination() const noexcept {
    return config_.mapping != ChannelConfig::Mapping::Block;
  }
  /// Consumer index that aggregates producer terms (tree root).
  [[nodiscard]] static int term_aggregator() noexcept { return 0; }
  /// Tree parent of consumer `c` in the binary heap over the consumers (-1
  /// for the aggregator). A parent's index is below its children's, so
  /// subtree walks ascend strictly.
  [[nodiscard]] static int term_parent(int consumer) noexcept {
    return consumer <= 0 ? -1 : (consumer - 1) / 2;
  }
  /// True when `consumer` lies in the tree subtree rooted at `root`
  /// (inclusive). Used to slice the per-consumer counts a collective term
  /// carries down to just the receiver's subtree.
  [[nodiscard]] static bool term_in_subtree_of(int consumer, int root) noexcept {
    while (consumer > root) consumer = term_parent(consumer);
    return consumer == root;
  }
  /// Tree hops from the aggregator to the deepest consumer: the length of
  /// the collective-term critical path, O(log C).
  [[nodiscard]] int term_tree_depth() const noexcept;

  /// Channel rank (in comm()) of producer p / consumer c.
  [[nodiscard]] static int producer_rank(int p) noexcept { return p; }
  [[nodiscard]] int consumer_rank(int c) const noexcept {
    return producer_count_ + c;
  }

 private:
  /// A channel's members: producers, then consumers, as world ranks.
  struct Members {
    mpi::Group group;
    int producers = 0;
    int consumers = 0;
  };
  /// The members of the channel over `parent` whose roles are `roles`, one
  /// byte per parent rank (1 = producer, 2 = consumer). Throws
  /// std::invalid_argument when either side is empty. create derives them
  /// once per channel from the shared result of its role allgather, and
  /// attach from a list it computed locally.
  static Members members_of(const mpi::Comm& parent,
                            std::span<const std::byte> roles);
  /// The channel over `parent` with `members`; every member that passes the
  /// same members derives the same channel.
  static Channel build(mpi::Rank& self, const mpi::Comm& parent,
                       const Members& members, ChannelConfig config);

  ChannelConfig config_{};
  mpi::Comm comm_{};
  int producer_count_ = 0;
  int consumer_count_ = 0;
};

}  // namespace ds::stream
