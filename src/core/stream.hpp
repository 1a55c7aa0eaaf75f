// MPIStream data streams (paper Sec. III-A, steps 2-5).
//
// A Stream binds a datatype (the stream-element granularity S of Eq. 4) and
// a consumer-side operator to a Channel. Producers inject elements with
// stream_isend as soon as each element is ready — fine-grained asynchronous
// dataflow. Consumers run operate(), which applies the operator to elements
// in first-come-first-served arrival order across all of their producers;
// that FCFS consumption is the mechanism that absorbs producer imbalance.
//
// Termination (MPIStream_Terminate) is one count-based state machine for
// every mapping, with or without resilience:
//
//  * One term, one root. Every producer sends one term, carrying its
//    per-flow element counts, to its *term root*: under Block the current
//    owner of the producer's flow (a routing with a single peer), under
//    Directed the channel's aggregator consumer.
//  * Gather. A root records the terms as rows of a resilience::CountMatrix
//    and knows its counts once every producer it roots has reported or
//    crashed. A counter of the terms still owed keeps this O(1) per
//    receive step; it is recounted only when the set of rooted producers
//    moves (adoption, handback, aggregator takeover, producer crash).
//  * Distribution, only where other consumers need the counts:
//    non-resilient trees fan the per-consumer totals down a binary tree
//    over the consumers (sliced per subtree, O(C log C) bytes); resilient
//    trees announce the count matrix and collect announce-acks; Block needs
//    none, since every consumer roots its own producers.
//  * Completion. A consumer is exhausted once its counts are known and
//    satisfied: a non-resilient stream has processed its total, a resilient
//    one has dedup cursors at its count cells and has been released. A term
//    can therefore never overtake in-flight data.
//
// Liveness contract on trees: the collective term travels through
// consumers, so a consumer that stops servicing the stream (returns from
// operate_while early and never polls again) also stops forwarding the
// term to its tree descendants. Waiting on exhausted()/operate() completion
// therefore requires every consumer of the channel to keep servicing the
// stream; protocols where consumers leave early by design (e.g. the PIC
// close-notification stream) must not wait on exhaustion — exactly as under
// the seed's broadcast, where unread terms were simply abandoned.
//
// Transport: every element travels inside a frame — one fabric message of
// length-prefixed sub-records. The consumer borrows each received message
// from the machine instead of copying it out, unpacks the frame's elements
// straight from its payload, and releases it after the last one, so its
// memory follows what arrives, not the element type's modeled size. Each
// element costs the producer its injection overhead o (Eq. 4), and each
// frame one per-message o_s at the producer and o_r at the consumer.
// Elements a producer injects at the same virtual instant toward the same
// consumer share a frame of up to the producer's current frame budget
// (starting at ChannelConfig::kCoalesceBudget wire bytes); element semantics
// (per-(context,src) FIFO, wildcard matching, count-based termination
// exhaustion, credit accounting) are kept with counted rather than
// per-message bookkeeping. A frame no further element fits is posted at
// once, so an element larger than the budget travels alone under the
// paper's per-element cost model. A frame left open is flushed by a
// same-instant backstop event the moment the producing fiber yields, so
// framing never delays an element in virtual time. A flow controller tunes
// the frame budget, the credit window and the credit batch (the paper's
// Sec. III adaptive-configuration extension; see ChannelConfig).
//
// Resilience (ChannelConfig::checkpoint_interval > 0, the ds::resilience
// subsystem): every frame is additionally stamped with its *flow* (the
// original consumer index its sequence space belongs to) and the sequence
// number of its first element. Producers cut an epoch every
// checkpoint_interval elements per flow and retain flushed-but-not-durably-
// acknowledged frames in a bounded replay log (resilience::ReplayLog);
// consumers acknowledge epoch durability (at every epoch boundary, or, for
// consumers with external effects that register a durable point, through
// that hook's ack_durable), which truncates the log. When fault
// injection crashes a consumer, producers rebind the dead consumer's flows
// to the deterministic failover target (resilience::failover_target) and
// replay the retained frames; receivers dedupe by (producer, flow, seq), so
// application code sees every element exactly once. Recoverability window:
// crashes are recoverable until the producers are released (terminate()
// keeps repairing its routing while it waits); data already durable at the
// dead consumer is never replayed.
//
// Resilient termination adds the release to the state machine above, which
// covers the remaining failure-matrix cells — producer crash, root crash
// mid-protocol, rank rejoin:
//
//  * A terminating producer blocks until its root releases it, re-sending
//    its counted term whenever the root moves (a failover or handback of
//    its Block flow, an aggregator crash, the rejoin of an earlier slot)
//    and servicing durable acks, failover and rebalancing while it waits.
//    Rows are recorded idempotently, so re-sent terms are harmless.
//  * The root releases once its own count cells are satisfied, its
//    distribution is collected (on trees: every live consumer has acked
//    the announced matrix — one shared copy of its nonzero cells that
//    every consumer keeps a reference to, while the fabric charges each
//    announce the full P x C counts) and its durable point, if
//    registered, has run. The release goes to the producers it roots and,
//    on trees, to every consumer, in one atomic fiber step, and it retires
//    the producers' replay logs. On trees this yields the invariant that
//    makes an aggregator crash mid-protocol survivable: if any producer
//    was released, every live consumer already holds the matrix, so a
//    newly elected aggregator either re-collects terms (producers are
//    still blocked and resend) or re-announces the shared copy it adopted.
//  * Per-(producer, flow) accounting means a dead producer's lost tail can
//    never mask a live producer's in-flight data.
//
// Membership has one signal, the machine's failure record: consumers leave
// only by crashing and return only by restarting. Rejoin rides the failover
// machinery: when a crashed rank restarts (Machine::restart_rank),
// producers observe the membership epoch move at their next stream
// operation, point the flow back at its home slot, and send the previous
// owner a handback marker; the owner replies to the home slot with a cursor
// sync carrying its dedup cursor for that producer's flow (and erases it —
// the dedup filter's memory bound), so the rejoined consumer resumes
// exactly where its predecessor stopped.
//
// Instrumentation: Stream::stats() returns this rank's counters on the
// stream as one StreamStats value, readable at any time. When the rank's
// role completes, the stream adds the same values once to the machine's
// metrics registry (ds::obs) under `stream.*` names.
//
// This is the implementation layer: application code normally uses the
// typed streams of core/decouple.hpp (decouple::TypedStream / RawStream),
// which decode elements and terminate by RAII.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/channel.hpp"
#include "mpi/datatype.hpp"
#include "mpi/ops.hpp"
#include "resilience/failover.hpp"

namespace ds::stream {

/// Producer-side coalescing state (defined in stream.cpp; heap-boxed and
/// shared with the same-instant backstop events so a moved/destroyed Stream
/// never leaves a scheduled flush dangling).
struct CoalesceState;
/// Why a frame left the producer (defined in stream.cpp, where the
/// self-tuning loop reads it).
enum class FlushTrigger : std::uint8_t;

/// A received stream element, valid only during the operator invocation.
/// `data` is null for synthetic elements (modeled payloads).
struct StreamElement {
  const std::byte* data = nullptr;
  std::size_t bytes = 0;
  int producer = -1;  ///< producer index in the channel
};

/// Consumer-side operator applied on-the-fly to arriving elements.
using Operator = std::function<void(const StreamElement&)>;

/// A value snapshot of one stream's counters on this rank (Stream::stats),
/// taken at any time, including mid-run; the other role's counters stay 0.
/// The fields named like a `stream.*` metric are what the lifecycle flush
/// adds to the machine's metrics registry when the role completes.
struct StreamStats {
  // ---- producer ----
  std::uint64_t elements_sent = 0;
  /// Frame messages posted. Every element leaves in a frame, so this equals
  /// elements_sent when each frame carries one element (e.g. elements larger
  /// than the budget).
  std::uint64_t frames_sent = 0;
  /// Credits received back: elements consumed and acked, however batched.
  std::uint64_t credits_received = 0;
  /// Elements re-posted from replay logs across failovers.
  std::uint64_t replayed_elements = 0;
  /// Elements currently retained for replay across this producer's flows.
  std::uint64_t retained_elements = 0;
  /// Flow rebinds after consumer crashes.
  std::uint32_t failovers = 0;
  /// Voluntary flow moves for rank rejoins: handbacks to a rejoined home
  /// slot, and resynchronizations of a home slot that crashed and restarted
  /// unobserved.
  std::uint32_t rebalances = 0;
  /// Current effective frame budget in wire bytes, as the flow controller
  /// tuned it; 0 before the first stream operation.
  std::uint32_t coalesce_budget_now = 0;
  /// Current effective credit window: the configured max_inflight, grown
  /// (never below it) on credit stalls.
  std::uint32_t max_inflight_now = 0;
  /// Flows this producer holds frame state (and, when resilient, a replay
  /// log) for. Each opens at its first element, so this counts the flows
  /// the producer sends on, not the consumers: one under Block (or Directed
  /// on its default route), up to every consumer for a Directed producer
  /// that spreads its elements.
  std::uint32_t open_flows = 0;

  // ---- consumer ----
  /// Data elements processed: handed to the operator, duplicates excluded.
  std::uint64_t elements_consumed = 0;
  /// Credit ack messages sent (each carries a whole batch, so with a batch
  /// of k this is about elements / k).
  std::uint64_t ack_messages = 0;
  /// Duplicate deliveries the exactly-once filter suppressed.
  std::uint64_t duplicates_dropped = 0;
  /// Live (producer, flow) cursor entries in the exactly-once filter.
  /// Handbacks erase entries, so this stays bounded by the flows a consumer
  /// currently owns rather than growing with crash/rejoin churn.
  std::uint64_t dedup_entries = 0;
  /// Durability acknowledgments sent.
  std::uint64_t durable_acks = 0;
  /// Current effective credit batch of a flow-controlled consumer (tuned
  /// toward the observed frame occupancy); 1 without flow control.
  std::uint32_t ack_interval_now = 1;

  // ---- both roles ----
  /// Termination-protocol messages sent: a producer's terms; a consumer's
  /// tree fan-out, announces, announce-acks and releases.
  std::uint64_t term_messages = 0;
};

class Stream {
 public:
  Stream() = default;

  /// Attach a stream to `channel` (paper's MPIStream_Attach). Local call;
  /// every channel member must attach with the same `stream_id` before
  /// using it. `element_type` fixes the element wire size; `op` is invoked
  /// on consumers only and may be empty elsewhere.
  [[nodiscard]] static Stream attach(const Channel& channel,
                                     const mpi::Datatype& element_type,
                                     Operator op, std::uint64_t stream_id = 0);

  /// Producer: asynchronously inject one element (paper's MPIStream_Isend).
  /// `element.bytes` must not exceed the element type's size; a real
  /// payload of 4 GiB (2^32 bytes) or more throws std::length_error, while
  /// a modeled wire size may be larger. Charges the per-element overhead
  /// and sender overhead; returns without blocking on delivery. Routed by
  /// the channel's mapping policy.
  void isend(mpi::Rank& self, mpi::SendBuf element);

  /// Producer: inject one element addressed to a specific consumer index
  /// (Directed routing; used when elements carry their own destination,
  /// e.g. halo faces addressed to a neighbour's helper). Throws
  /// std::out_of_range when `consumer` is not a valid consumer index, and
  /// std::invalid_argument on a Block channel unless `consumer` is this
  /// producer's own consumer (route(p)): a Block consumer counts only the
  /// producers it roots, so it could never account for the element.
  void isend_to(mpi::Rank& self, int consumer, mpi::SendBuf element);

  /// Producer: inject a synthetic element of the full element size.
  void isend_synthetic(mpi::Rank& self) {
    isend(self, mpi::SendBuf::synthetic(element_size_));
  }

  /// Producer: signal end-of-stream (paper's MPIStream_Terminate).
  void terminate(mpi::Rank& self);

  /// Consumer: process elements FCFS until every routed producer terminated
  /// (paper's MPIStream_Operate). Returns the number of elements processed.
  std::uint64_t operate(mpi::Rank& self);

  /// Consumer: process arrivals while `keep_going()` returns true and
  /// unterminated producers remain; re-checks `keep_going` after each
  /// element. Returns elements processed. Used by consumers that interleave
  /// other duties.
  std::uint64_t operate_while(mpi::Rank& self, const std::function<bool()>& keep_going);

  /// Consumer: drain pending arrivals without blocking until one *data*
  /// element has been consumed. Terminations encountered on the way are
  /// consumed silently (they are control flow, not elements — matching
  /// operate_while accounting). Returns true iff a data element was consumed.
  bool poll_one(mpi::Rank& self);

  /// Consumer (resilient streams): acknowledge that every element consumed
  /// so far has durable effects (e.g. the writer's buffer reached storage).
  /// Producers truncate their replay logs up to the acknowledged sequences;
  /// a later crash of this consumer replays only elements consumed after
  /// the last ack. Sends the acks whether or not a durable point is
  /// registered (without one, epoch boundaries also ack on their own). No-op
  /// on non-resilient streams.
  void ack_durable(mpi::Rank& self);

  /// Consumer (resilient streams, any mapping): register the durability hook
  /// the termination protocol invokes before this consumer commits — right
  /// before a root releases its producers, and, on trees, right before a
  /// consumer's announce-ack. The hook must make every consumed element's
  /// external effects durable and call ack_durable (e.g. a writer's file
  /// flush). Registering it is what makes durability manual: the consumer
  /// then stops acknowledging at epoch boundaries and acknowledges only
  /// through ack_durable, and the release certifies durability — producers
  /// retire their replay logs knowing no consumer they reported to still
  /// holds undurable state a later crash could lose. Without a hook every
  /// epoch boundary acknowledges on consumption, and the release (and the
  /// announce-ack) certifies count agreement. Register it before the first
  /// operate; a hook on a non-resilient stream never runs.
  void set_durable_point(std::function<void()> hook) {
    durable_point_ = std::move(hook);
  }

  [[nodiscard]] std::size_t element_size() const noexcept { return element_size_; }
  [[nodiscard]] const Channel& channel() const noexcept { return *channel_; }
  /// This rank's counters on this stream, as one value.
  [[nodiscard]] StreamStats stats() const noexcept;
  /// True once the stream's termination protocol has completed for this
  /// consumer: its counts are known and satisfied — every counted element
  /// processed (non-resilient), or every (live producer, owned flow) cursor
  /// at its count and the release passed (resilient).
  [[nodiscard]] bool exhausted() const noexcept {
    if (!counts_known_) return false;
    return resilient_ ? matrix_satisfied_ && released_
                      : processed_data_ >= expected_data_;
  }

 private:
  /// Wire entry of a termination message: how many data elements are bound
  /// for one flow (consumer index). Terms carry only the entries relevant to
  /// the receiver — a producer's touched flows (one under Block, up to C
  /// otherwise, so O(P*C) bytes on the aggregation hop in the worst case)
  /// and a tree node's subtree (O(C log C) bytes across the whole fan-out).
  struct TermEntry {
    std::uint64_t consumer = 0;
    std::uint64_t count = 0;
  };
  using Payload = std::span<const std::byte>;

  void ensure_consumer_state(mpi::Rank& self);
  /// This rank's producer index, resolved once per stream: the channel
  /// lookup is a scan over its members, too slow for every element. Throws
  /// std::logic_error, naming `caller`, when this rank is not a producer.
  int my_producer(mpi::Rank& self, const char* caller);
  void ensure_producer_state(mpi::Rank& self, int producer);
  /// The body of isend/isend_to once the consumer is known: resilience
  /// checks, the credit wait, and coalescing into `consumer`'s frame.
  void inject(mpi::Rank& self, int producer, int consumer,
              mpi::SendBuf element);
  /// The producer's current credit window (0 = no flow control).
  [[nodiscard]] std::uint32_t credit_window() const noexcept;
  /// Append one element to `flow`'s open frame, flushing it first when the
  /// element would overflow the budget or the element cap, and posting the
  /// frame at once when no further element fits (or an epoch ends).
  void coalesce_element(mpi::Rank& self, int flow, mpi::SendBuf element);
  /// Fiber-context flush of one open flow's pending frame, by its slot in
  /// the framing state (post, retune, charge the deferred per-element +
  /// per-message overhead as one advance).
  void flush_frame(mpi::Rank& self, std::uint32_t slot, FlushTrigger trigger);
  /// flush_frame for every open flow, in ascending flow order.
  void flush_all_frames(mpi::Rank& self, FlushTrigger trigger);
  /// Unpack state for the frame just received into message_;
  /// consume_frame_element() then hands elements to the operator one at a
  /// time, read in place, and releases the message after the last one.
  /// Returns false when the element was a replay duplicate suppressed by
  /// the exactly-once filter (nothing was delivered or accounted).
  void begin_frame(const mpi::Status& status);
  bool consume_frame_element(mpi::Rank& self);
  void account_data_element(mpi::Rank& self, int producer);
  /// Handle one protocol control message (anything but a frame), reading
  /// its payload in place.
  void handle(mpi::Rank& self, const mpi::Status& status, Payload payload);
  /// Non-resilient tree consumer: adopt the total the tree parent fanned
  /// down and forward the slices to this consumer's children.
  void handle_distributed_term(mpi::Rank& self, Payload payload);
  /// Send the collective term on to this consumer's tree children, sliced
  /// to each child's subtree.
  void fan_out_term(mpi::Rank& self, const std::vector<TermEntry>& entries);
  /// Return `producer`'s accumulated credits as one batched ack message.
  void flush_credits(mpi::Rank& self, int producer);
  void flush_all_credits(mpi::Rank& self);
  void await_credit(mpi::Rank& self);

  // ---- resilience (ds::resilience; active only when the channel config
  // ---- sets checkpoint_interval > 0) ----
  /// Producer: react to crashes and restarts observed since the last call,
  /// once per membership epoch: fail_over_flows, then rebalance_flows.
  void check_producer_membership(mpi::Rank& self);
  /// Producer: rebind the flows whose consumer is dead to their failover
  /// targets, retarget pending frames, and replay retained frames.
  void fail_over_flows(mpi::Rank& self);
  /// Producer: hand redirected flows back to a rejoined home slot (with a
  /// handback marker to the previous owner), and resynchronize (handoff +
  /// full undurable replay) with a home slot whose rank crashed and
  /// restarted without the redirect ever moving.
  void rebalance_flows(mpi::Rank& self);
  /// Consumer: react to newly observed crashes and rejoins — adopt dead
  /// consumers' flows this rank is the failover target of (until it is
  /// released), re-derive the effective aggregator, and recount the terms
  /// this consumer is still owed.
  void check_consumer_failover(mpi::Rank& self);
  /// Producer: the consumer index its term goes to — the current owner of
  /// its flow under Block, the (effective) aggregator on trees.
  [[nodiscard]] int term_root(mpi::Rank& self) const;
  /// Consumer: true when this consumer is `producer`'s term root.
  [[nodiscard]] bool roots(int producer) const noexcept;
  /// Consumer: recount rooted_pending_ after the set of rooted producers
  /// moved (dead producers are waived), then re-derive the count verdict.
  void recount_rooted(mpi::Rank& self);
  /// True when `producer` crashed (resilient streams only track crashes).
  [[nodiscard]] bool producer_failed(mpi::Rank& self, int producer) const;
  /// The termination state machine, once per receive step: gather, seal,
  /// distribute, and (resilient roots) release.
  void progress_termination(mpi::Rank& self);
  /// Resilient tree root: (re-)announce the count matrix; true once every
  /// live consumer has acked it.
  bool announce_collected(mpi::Rank& self);
  /// Resilient root: release the producers it roots (and, on trees, every
  /// consumer) in one atomic fiber step.
  void release(mpi::Rank& self);
  /// Resilient consumer: recompute matrix_satisfied_ from the dedup cursors
  /// against the count cells of the flows this consumer owns (dead
  /// producers waived).
  void update_matrix_exhaustion(mpi::Rank& self);
  /// Seal the count matrix as known and derive this consumer's expected
  /// element total from it, then re-check the exhaustion verdict.
  void seal_matrix(mpi::Rank& self);
  /// Resilient tree consumer: ack the matrix announce to `to_world`.
  void send_announce_ack(mpi::Rank& self, int to_world);
  /// Record one producer's counted term as an idempotent matrix row and
  /// settle the term it owed, if this consumer roots it.
  void handle_counted_term(mpi::Rank& self, const mpi::Status& status,
                           Payload payload);
  /// Producer: hand one flow to `dst_world` — durable point first, then the
  /// retained undurable frames, verbatim, then the flow's open frame, if
  /// it has one: that frame's elements come after every retained one.
  void replay_flow(mpi::Rank& self, std::size_t flow, int dst_world);
  /// Consumer: apply/emit rejoin handback messages. handle_sync dispatches
  /// an incoming kTagSync (producer handback marker or consumer cursor
  /// sync); send_rebalance_sync answers one marker: it ships the
  /// (`producer`, `flow`) cursor this rank holds to `flow`'s home slot and
  /// erases the local entry.
  void handle_sync(mpi::Rank& self, const mpi::Status& status,
                   Payload payload);
  void send_rebalance_sync(mpi::Rank& self, int flow, int producer);
  /// Producer: consume pending durability acknowledgments, truncating logs.
  void drain_durable_acks(mpi::Rank& self);
  /// Consumer: one durability ack for (producer, flow) up to sequence `upto`.
  void send_durable_ack(mpi::Rank& self, int producer, int flow,
                        std::uint64_t upto);
  /// Consumer: ack the current consumption point of every tracked flow.
  void flush_durable_acks(mpi::Rank& self);
  /// The real body of terminate(); the public entry point adds the
  /// lifecycle metrics flush on clean completion.
  void terminate_impl(mpi::Rank& self);
  /// Outcome of one consumer receive step.
  enum class RecvStep : std::uint8_t {
    Element,   ///< a data element reached the operator
    Progress,  ///< a message, duplicate, or wake-up was handled
    Stop       ///< exhausted, `keep_going` said stop, or nothing to poll
  };
  /// The one consumer receive step behind operate_while and poll_one:
  /// resilient streams first react to crashes and rejoins and drive the
  /// termination protocol; then, unless the stream is exhausted or
  /// `keep_going` (when set) says stop, the open frame's next element goes
  /// to the operator, or receive_message takes the next message.
  RecvStep receive_step(mpi::Rank& self,
                        const std::function<bool()>& keep_going, bool wait);
  /// Receive and handle one message, borrowed from the machine (read in
  /// place, never copied). With nothing pending, a waiting step parks the
  /// fiber and a polling one returns Stop.
  RecvStep receive_message(mpi::Rank& self, bool wait);
  /// Lifecycle flush into the machine's metrics registry (ds::obs): once,
  /// when this rank's role completes (a producer's terminate, a consumer's
  /// exhaustion), add the role's stats() counters under their
  /// `stream.*` names — the per-element hot path never touches the registry.
  void flush_metrics(mpi::Rank& self);

  const Channel* channel_ = nullptr;
  std::uint64_t context_ = 0;      ///< matching context derived per stream
  std::uint64_t ack_context_ = 0;  ///< credit/ack context derived from it
  std::uint64_t durable_context_ = 0;  ///< durability-ack matching context
  std::size_t element_size_ = 0;
  Operator operator_;

  bool metrics_flushed_ = false;  ///< one-shot latch of flush_metrics

  // producer state
  std::uint64_t sent_ = 0;
  std::uint64_t acks_seen_ = 0;
  bool terminated_ = false;
  /// Framing state box (null until the first isend or terminate). Shared
  /// with the backstop events scheduled at each frame open, so flushes
  /// survive Stream moves.
  std::shared_ptr<CoalesceState> coalesce_;

  // consumer state
  int my_consumer_ = -1;
  std::uint64_t processed_data_ = 0;
  std::uint64_t expected_data_ = 0;  ///< this consumer's counted total
  /// Counts known: gathered and sealed at a root, distributed elsewhere.
  bool counts_known_ = false;
  int rooted_pending_ = 0;  ///< live rooted producers whose term is owed
  /// Credit batching (flow-controlled streams; empty otherwise):
  /// per-producer count of consumed-but-unacked elements, flushed every
  /// ack_every_-th element and whenever a term arrives or the stream
  /// exhausts.
  std::vector<std::uint32_t> credit_pending_;
  std::uint32_t ack_every_ = 1;  ///< current credit batch, tuned per frame
  std::uint32_t ack_limit_ = 1;  ///< liveness clamp ceil(window/spread)

  /// The received message being handled: a control message only while its
  /// handler runs, a frame until its last element has been consumed.
  /// Payloads are read here in place, so consumer memory follows what
  /// actually arrives rather than the largest modeled element.
  mpi::detail::OpRef<mpi::detail::SendOp> message_;
  /// Partially drained frame in message_: elements left, read cursor into
  /// its payload, and the frame's producer index. receive_step pulls from
  /// here before touching the mailbox, so a frame interleaves with other
  /// sources at frame granularity while per-(context,src) order holds.
  std::uint32_t frame_left_ = 0;
  std::uint32_t frame_elements_ = 0;  ///< total elements of the current frame
  std::size_t frame_cursor_ = 0;
  int frame_source_ = -1;
  /// Resilient frames additionally carry their flow id and the sequence of
  /// their first element (the epoch header).
  int frame_flow_ = -1;
  std::uint64_t frame_seq0_ = 0;

  // consumer-side resilience state (inert unless the channel is resilient)
  bool resilient_ = false;  ///< ChannelConfig::resilient(), read per element
  resilience::DedupFilter dedup_;
  std::uint64_t consumer_epoch_ = 0;  ///< last membership epoch reacted to
  std::vector<std::uint8_t> adopted_;  ///< dead consumers whose flows I took
  /// Tree root: Channel::term_aggregator(), re-derived after crashes on
  /// resilient channels.
  int effective_aggregator_ = 0;
  std::uint64_t durable_acks_sent_ = 0;

  // termination state machine
  /// The (producer x flow) count matrix, nonzero cells only: gathered row
  /// by row from counted terms at a root, adopted whole from an announce on
  /// resilient trees, sealed once counts_known_. Its row flags say whose
  /// term a root has received.
  resilience::CountMatrix matrix_;
  bool matrix_satisfied_ = false;  ///< owned cursors reached the matrix
  bool released_ = false;  ///< resilient: release sent (root) or received
  bool announced_ = false;         ///< aggregator: matrix broadcast begun
  std::vector<std::uint8_t> announce_acked_;  ///< aggregator: acks collected
  std::uint64_t announce_epoch_ = 0;  ///< re-announce keying
  /// Durability hook (see set_durable_point): flushes this consumer's
  /// external effects before an announce-ack / the release commits.
  std::function<void()> durable_point_;
  /// World rank of the announcer a deferred announce-ack is owed to (it
  /// waits for the durable point), or -1.
  int announce_ack_owed_to_ = -1;

  /// Idle wait: sleep until the next arrival in this rank's mailbox, or
  /// until a crash or rejoin anywhere (kill_rank and restart_rank wake
  /// every live rank). `what` names the wait in deadlock reports.
  void park(mpi::Rank& self, const char* what);
  /// Deadlock-report detail: the blocked-state notes below snprintf the
  /// stream's termination progress into this buffer so a hung run's report
  /// names the stuck channel and which protocol step is missing, instead of
  /// a bare "blocked in stream poll".
  char state_note_buf_[192] = {};
  [[nodiscard]] const char* blocked_note(const char* what);

  // termination scratch, reused across terms and children so the fan-out
  // does not reallocate per child slice (left unreserved: a resilient tree
  // never fills them, and C entries on each of C consumers is O(C^2))
  /// A producer's term entries; a tree consumer's totals to fan out (built
  /// by the aggregator, decoded from the parent's term elsewhere).
  std::vector<TermEntry> term_entries_;
  std::vector<TermEntry> term_slice_;  ///< per-child subtree slice

  // shared instrumentation
  std::uint64_t term_msgs_sent_ = 0;
  std::uint64_t ack_msgs_sent_ = 0;

  static constexpr int kTagTerm = 1;
  static constexpr int kTagAck = 2;
  /// A frame, the only data message: length-prefixed sub-records of one or
  /// more same-destination elements, unpacked in place at the consumer.
  static constexpr int kTagFrame = 3;
  /// A durability acknowledgment (resilient streams, durable_context_).
  static constexpr int kTagDurable = 4;
  /// A flow handoff announcing an adopted flow's durable point; posted on
  /// the data context right before its replayed frames, so per-source FIFO
  /// delivers it first and the adopter's dedup cursor skips the replay's
  /// already-durable prefix.
  static constexpr int kTagHandoff = 5;
  /// Aggregator -> consumers: the (producer x flow) count matrix (the
  /// distribution of resilient trees), a shared payload every consumer
  /// adopts in place (resilience::CountMatrix::share/adopt). Idempotent;
  /// resent after crashes and rejoins until acked.
  static constexpr int kTagAnnounce = 6;
  /// Consumer -> aggregator: matrix received.
  static constexpr int kTagAnnounceAck = 7;
  /// Root -> its producers (and, on trees, every consumer): the release.
  /// Sent to producers on durable_context_ (their wait loop probes there)
  /// and to consumers on context_, in one atomic fiber step.
  static constexpr int kTagRelease = 8;
  /// Rejoin handback traffic (context_). From a producer: a handback marker
  /// — flow f returns to its home slot as of the carried sequence; the
  /// receiving owner replies to the home slot with that producer's cursor.
  /// From a consumer: that cursor sync — one dedup cursor entry the
  /// receiver adopts (and the sender erases).
  static constexpr int kTagSync = 9;
};

}  // namespace ds::stream
