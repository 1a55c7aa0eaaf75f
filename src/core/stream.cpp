#include "core/stream.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "mpi/machine.hpp"
#include "mpi/rank.hpp"

namespace ds::stream {

/// Why a frame left the producer, as far as the flow controller tells the
/// cases apart.
enum class FlushTrigger : std::uint8_t {
  Budget,  ///< no further element fits: bursty arrivals fill frames
  Idle,    ///< same-instant backstop: the fiber yielded mid-frame
  Credit,  ///< the producer blocked on its credit window
  Other    ///< termination, a replay, or an epoch cut
};

namespace {

// The flow controller retunes a producer's frame budget and credit window
// once per kTunePeriod frame flushes.
constexpr std::uint32_t kTunePeriod = 16;
/// Shrink floor and growth ceiling of the frame budget.
constexpr std::uint32_t kMinTunedBudget = 256;
constexpr std::uint32_t kMaxTunedBudget =
    ChannelConfig::kCoalesceBudget * ChannelConfig::kCoalesceGrowthCap;
/// Grow when at least this share of the period's flushes filled the budget.
constexpr double kGrowFraction = 0.5;
/// Shrink when no flush filled the budget and mean occupancy stayed below
/// this fraction of it.
constexpr double kShrinkOccupancy = 0.25;

/// Leads every frame on the wire.
struct FrameHeader {
  std::uint32_t elements = 0;
  std::uint32_t data_bytes = 0;  ///< real payload bytes following the header
};

/// Length prefix of one sub-record: `wire` is the element's simulated wire
/// size, `data` the real bytes actually carried (0 for synthetic elements,
/// less than `wire` for header-only elements).
struct SubHeader {
  std::uint32_t wire = 0;
  std::uint32_t data = 0;
};

/// SubHeader::wire of an element of 4 GiB - 1 bytes or more. Such an element
/// outgrows every (32-bit) frame budget, so it always travels alone, and
/// the consumer reads its exact size off the frame's wire size instead.
constexpr std::uint32_t kWideWire = std::numeric_limits<std::uint32_t>::max();

/// Resilient frames carry this directly after the FrameHeader: the flow the
/// frame belongs to (the original consumer index of its sequence space) and
/// the flow sequence of the first packed element. Everything the receiver
/// needs for exactly-once admission, and everything a replayed frame needs
/// to stay self-describing.
struct EpochHeader {
  std::uint64_t seq0 = 0;
  std::uint32_t flow = 0;
  std::uint32_t reserved = 0;
};

/// One durability acknowledgment: every element of `flow` below `upto` has
/// durable effects at the consumer; the producer truncates its replay log.
struct DurableAck {
  std::uint64_t upto = 0;
  std::uint32_t flow = 0;
  std::uint32_t reserved = 0;
};

/// Flow handoff sent at failover, ahead of the replayed frames: the adopted
/// flow's durable point, so the adopter admits exactly the undurable tail
/// even when a retained frame straddles the durability boundary (possible
/// with a durable point, whose acks land at arbitrary consumption points).
struct FlowHandoff {
  std::uint64_t durable = 0;
  std::uint32_t flow = 0;
  std::uint32_t reserved = 0;
};

/// A cursor sync (kTagSync from a consumer): the receiver adopts the dedup
/// cursor for one (producer, flow) pair, while the sender erases its own
/// entry. Producer-sourced kTagSync messages reuse FlowHandoff as a
/// handback marker instead (durable = the flow sequence as of the
/// handback).
struct SyncEntry {
  std::uint64_t producer = 0;
  std::uint64_t flow = 0;
  std::uint64_t next = 0;
};

constexpr std::size_t kFrameOverhead = sizeof(FrameHeader);
constexpr std::size_t kSubOverhead = sizeof(SubHeader);
constexpr std::size_t kEpochOverhead = sizeof(EpochHeader);

/// The payload of a borrowed message, read in place (empty when synthetic).
std::span<const std::byte> payload_of(
    const mpi::detail::OpRef<mpi::detail::SendOp>& message) {
  if (!message) return {};
  return {message->payload(), message->payload_bytes};
}

}  // namespace

/// Everything the producer-side framer needs, heap-boxed once per stream:
/// the backstop events hold a shared_ptr, so a flush scheduled at the
/// current instant still finds live state after the Stream moves (or even
/// dies). post_send is event-context safe, so backstop flushes need no
/// fiber; their CPU charge is carried as debt and settled on the fiber's
/// next flush/terminate.
struct CoalesceState {
  mpi::Machine* machine = nullptr;
  std::uint64_t context = 0;
  int producer_index = -1;
  int src_world = -1;
  int frame_tag = 0;  ///< Stream::kTagFrame (private there; stashed at init)

  /// Current effective frame budget (wire bytes).
  std::uint32_t budget = ChannelConfig::kCoalesceBudget;
  // The open tuning period: its flushes, their wire bytes, and how many of
  // them each trigger caused.
  std::uint32_t period_flushes = 0;
  std::uint32_t budget_flushes = 0;
  std::uint32_t idle_flushes = 0;
  std::uint32_t credit_flushes = 0;
  std::uint64_t period_bytes = 0;

  util::SimTime send_overhead = 0;
  util::SimTime debt = 0;  ///< CPU owed from event-context flushes

  // Adaptive credit window (max_inflight > 0): grown on credit stalls,
  // decayed back toward — never below — the configured value.
  std::uint32_t window_cfg = 0;
  std::uint32_t window_cap = 0;
  std::uint32_t window_now = 0;

  // Resilience (ChannelConfig::checkpoint_interval > 0): replay logs and the
  // physical redirect installed by failover. Lives in the shared box so
  // backstop (event-context) flushes retain frames exactly like fiber
  // flushes.
  bool resilient = false;
  std::size_t frame_overhead = kFrameOverhead;  ///< + epoch header if resilient
  std::uint32_t checkpoint_interval = 0;
  /// Physical consumer per flow (identity start). Dense, like
  /// flow_incarnation: failover rebinds and counts every flow, open or not.
  std::vector<int> redirect;
  std::uint64_t seen_epoch = 0;  ///< last membership epoch reacted to
  /// Last observed incarnation of each flow's *home* rank: a bump while the
  /// redirect still points home means the rank crashed and restarted without
  /// this producer ever noticing — everything sent during the dead window
  /// was dropped at the dead mailbox and must be replayed.
  std::vector<int> flow_incarnation;
  std::uint64_t replayed_elements = 0;
  std::uint32_t failovers = 0;
  std::uint32_t rebalances = 0;  ///< voluntary moves after rejoins

  /// Per-flow frame state. A flow is a consumer index: the destination of
  /// a non-resilient stream's elements, or the sequence space of a
  /// resilient one (which may travel to a failover target).
  struct Pending {
    std::vector<std::byte> buf;  ///< FrameHeader + sub-records (capacity kept)
    std::uint32_t elements = 0;
    int dst_world = -1;
    std::uint64_t wire = 0;   ///< frame wire bytes incl. all framing
    std::uint64_t epoch = 0;  ///< bumped per flush; stale backstops no-op
    std::uint64_t seq0 = 0;   ///< resilient: flow seq of the first element
    /// Elements sent on this flow, which is also the next flow sequence.
    /// Every termination count comes from here: the tree term's
    /// per-consumer counts and the resilient counted term's per-flow ones.
    std::uint64_t sent = 0;
  };

  /// Flow state exists only for the flows this producer has put an element
  /// on — one for a Block producer, or a Directed one on its default route;
  /// up to every consumer for a Directed one that spreads its elements.
  /// `slot` maps a flow to its index in `frames` and, on a resilient
  /// stream, in `logs` (kNoSlot while the flow is unopened, which reads as
  /// an empty frame slot and an empty log).
  /// Only open() adds to `frames` and `logs`, and nothing holds a reference
  /// into them across it: backstop events keep a slot, not a reference.
  static constexpr std::uint32_t kNoSlot =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> slot;          ///< by flow
  std::vector<Pending> frames;              ///< by slot
  std::vector<resilience::ReplayLog> logs;  ///< by slot (resilient)

  std::uint64_t frames_sent = 0;

  /// The flow's slot, opening the flow at its first use.
  std::uint32_t open(std::size_t flow) {
    std::uint32_t& s = slot[flow];
    if (s == kNoSlot) {
      s = static_cast<std::uint32_t>(frames.size());
      // Geometric growth, capped at one slot per consumer.
      if (frames.size() == frames.capacity())
        frames.reserve(std::min(slot.size(), 2 * frames.size() + 1));
      frames.emplace_back();
      if (resilient) {
        logs.reserve(frames.capacity());
        logs.emplace_back();
      }
    }
    return s;
  }
  /// The flow's frame slot, or null while the flow is unopened.
  Pending* frame_of(std::size_t flow) {
    return slot[flow] == kNoSlot ? nullptr : &frames[slot[flow]];
  }

  /// Post one flow's pending frame (fiber or event context) and reset the
  /// slot. Resilient flows retain the frame bytes for replay before posting.
  /// Returns the frame's wire size for the controller.
  std::uint64_t post_frame(std::uint32_t s) {
    Pending& p = frames[s];
    FrameHeader header{p.elements,
                       static_cast<std::uint32_t>(p.buf.size() - kFrameOverhead)};
    std::memcpy(p.buf.data(), &header, sizeof header);
    if (resilient)
      logs[s].retain(p.seq0, p.elements, p.wire, p.buf.data(), p.buf.size());
    machine->post_send(context, producer_index, src_world, p.dst_world,
                       frame_tag,
                       mpi::SendBuf{p.buf.data(), p.buf.size(), p.wire});
    ++frames_sent;
    const std::uint64_t wire = p.wire;
    ++p.epoch;
    p.buf.clear();  // keeps capacity
    p.elements = 0;
    p.wire = 0;
    return wire;
  }

  /// The flow controller's one step — the paper's Sec. III adaptive
  /// configuration, applied to the transport granularity of Eq. 4: record a
  /// flush of `elements`/`wire` under `trigger`, and once per kTunePeriod
  /// flushes retune the budget (and, when flow control is on, the credit
  /// window) from the period's frame occupancy and trigger mix.
  void retune(FlushTrigger trigger, std::uint32_t elements, std::uint64_t wire) {
    ++period_flushes;
    period_bytes += wire;
    if (trigger == FlushTrigger::Budget) ++budget_flushes;
    if (trigger == FlushTrigger::Idle && elements > 0) ++idle_flushes;
    if (trigger == FlushTrigger::Credit) ++credit_flushes;
    if (period_flushes < kTunePeriod) return;

    const double budget_fraction =
        static_cast<double>(budget_flushes) / period_flushes;
    const double occupancy =
        static_cast<double>(period_bytes) /
        (static_cast<double>(period_flushes) * static_cast<double>(budget));
    if (budget_fraction >= kGrowFraction) {
      // Bursts keep filling frames: double the budget so each burst leaves
      // in fewer, larger messages (more per-message software cost amortized).
      budget = std::min(kMaxTunedBudget, budget * 2);
    } else if (budget_flushes == 0 && occupancy < kShrinkOccupancy &&
               idle_flushes > 0) {
      // Sparse producer: frames leave near-empty from the backstop, so a
      // large budget buys nothing; a small one keeps the packing memcpy and
      // the buffer footprint low.
      budget = std::max(kMinTunedBudget, budget / 2);
    }
    if (window_cfg > 0) {
      // Credit stalls mean the producer keeps blocking on its window: double
      // it, up to the cap. A period without stalls decays it halfway back
      // toward the configured value, never below it: the consumers'
      // liveness clamp ceil(configured / spread) stays valid for any window
      // at least that large.
      if (credit_flushes > 0)
        window_now = std::min(window_cap, window_now * 2);
      else if (window_now <= window_cfg)
        window_now = window_cfg;
      else
        window_now -= (window_now - window_cfg + 1) / 2;
    }
    period_flushes = budget_flushes = idle_flushes = credit_flushes = 0;
    period_bytes = 0;
  }
};

Stream Stream::attach(const Channel& channel, const mpi::Datatype& element_type,
                      Operator op, std::uint64_t stream_id) {
  Stream s;
  s.channel_ = &channel;
  s.element_size_ = element_type.size();
  s.operator_ = std::move(op);
  if (channel.valid()) {
    s.context_ = mpi::Machine::derive_context(channel.comm().context(),
                                              0x57BEA4ull, stream_id);
    s.ack_context_ = mpi::Machine::derive_context(s.context_, 0xACCull, 1);
    s.durable_context_ = mpi::Machine::derive_context(s.context_, 0xD07ull, 2);
  }
  return s;
}

std::uint32_t Stream::credit_window() const noexcept {
  return coalesce_ && coalesce_->window_now > 0
             ? coalesce_->window_now
             : (channel_ != nullptr ? channel_->config().max_inflight : 0);
}

StreamStats Stream::stats() const noexcept {
  StreamStats s;
  s.elements_sent = sent_;
  s.credits_received = acks_seen_;
  s.max_inflight_now = credit_window();
  if (coalesce_) {
    s.frames_sent = coalesce_->frames_sent;
    s.open_flows = static_cast<std::uint32_t>(coalesce_->frames.size());
    s.replayed_elements = coalesce_->replayed_elements;
    for (const resilience::ReplayLog& log : coalesce_->logs)
      s.retained_elements += log.retained_elements();
    s.failovers = coalesce_->failovers;
    s.rebalances = coalesce_->rebalances;
    s.coalesce_budget_now = coalesce_->budget;
  }
  s.elements_consumed = processed_data_;
  s.ack_messages = ack_msgs_sent_;
  s.duplicates_dropped = dedup_.duplicates_dropped();
  s.dedup_entries = dedup_.dedup_entries();
  s.durable_acks = durable_acks_sent_;
  s.ack_interval_now = ack_every_;
  s.term_messages = term_msgs_sent_;
  return s;
}

int Stream::my_producer(mpi::Rank& self, const char* caller) {
  if (coalesce_) return coalesce_->producer_index;
  const int p = channel_->my_producer_index(self);
  if (p < 0)
    throw std::logic_error(std::string(caller) + ": caller is not a producer");
  return p;
}

void Stream::ensure_producer_state(mpi::Rank& self, int producer) {
  const ChannelConfig& cfg = channel_->config();
  if (coalesce_) return;
  auto st = std::make_shared<CoalesceState>();
  st->machine = &self.machine();
  st->context = context_;
  st->producer_index = producer;
  st->src_world = self.world_rank();
  st->frame_tag = kTagFrame;
  st->resilient = cfg.resilient();
  st->frame_overhead =
      kFrameOverhead + (st->resilient ? kEpochOverhead : 0);
  st->send_overhead = self.machine().config().network.send_overhead;
  const auto consumers = static_cast<std::size_t>(channel_->consumer_count());
  st->slot.assign(consumers, CoalesceState::kNoSlot);
  if (cfg.max_inflight > 0) {
    st->window_cfg = cfg.max_inflight;
    st->window_cap = cfg.max_inflight * ChannelConfig::kWindowGrowthCap;
    st->window_now = cfg.max_inflight;
  }
  if (st->resilient) {
    auto& machine = self.machine();
    st->checkpoint_interval = cfg.checkpoint_interval;
    st->redirect.resize(consumers);
    st->flow_incarnation.resize(st->redirect.size());
    for (std::size_t c = 0; c < st->redirect.size(); ++c) {
      st->redirect[c] = static_cast<int>(c);
      const int w = channel_->comm().world_rank(
          channel_->consumer_rank(static_cast<int>(c)));
      st->flow_incarnation[c] = machine.incarnation(w);
      // Slots that crashed before our first send start routed around.
      if (machine.rank_failed(w)) {
        const int target = resilience::failover_target(
            *channel_, static_cast<int>(c), machine);
        if (target >= 0) st->redirect[c] = target;
      }
    }
  }
  coalesce_ = std::move(st);
}

void Stream::coalesce_element(mpi::Rank& self, int flow,
                              mpi::SendBuf element) {
  CoalesceState& st = *coalesce_;
  const std::size_t el_wire = element.on_wire();
  const std::uint32_t s = st.open(static_cast<std::size_t>(flow));
  auto& p = st.frames[s];
  if (p.elements > 0 &&
      (p.wire + kSubOverhead + el_wire > st.budget ||
       p.elements >= ChannelConfig::kCoalesceMaxElements)) {
    flush_frame(self, s, FlushTrigger::Budget);
  }
  const bool opened = p.elements == 0;
  if (opened) {
    p.buf.resize(st.frame_overhead);  // header(s) written at flush/open
    p.wire = st.frame_overhead;
    // A resilient frame belongs to its flow but travels to the flow's
    // current physical target; the epoch header makes it self-describing
    // for both first delivery and replay.
    p.dst_world = channel_->comm().world_rank(channel_->consumer_rank(
        st.resilient ? st.redirect[static_cast<std::size_t>(flow)] : flow));
    if (st.resilient) {
      p.seq0 = p.sent;
      const EpochHeader eh{p.seq0, static_cast<std::uint32_t>(flow), 0};
      std::memcpy(p.buf.data() + kFrameOverhead, &eh, sizeof eh);
    }
  }
  const SubHeader sub{
      static_cast<std::uint32_t>(std::min<std::size_t>(el_wire, kWideWire)),
      static_cast<std::uint32_t>(element.bytes)};
  const std::size_t at = p.buf.size();
  p.buf.resize(at + kSubOverhead + element.bytes);
  std::memcpy(p.buf.data() + at, &sub, sizeof sub);
  if (element.bytes > 0)
    std::memcpy(p.buf.data() + at + kSubOverhead, element.ptr, element.bytes);
  p.wire += kSubOverhead + el_wire;
  ++p.elements;
  ++p.sent;
  // Epoch cut: frames never straddle checkpoint boundaries, so durability
  // acknowledgments (which arrive at epoch granularity) always truncate
  // whole frames from the replay log.
  if (st.resilient && p.sent % st.checkpoint_interval == 0) {
    flush_frame(self, s, FlushTrigger::Other);
    return;
  }
  // No further element fits (always so after an element larger than the
  // budget): post the frame now, from the fiber, so one-element frames pay
  // the per-element o plus o_s at their own send.
  if (p.wire + kSubOverhead > st.budget) {
    flush_frame(self, s, FlushTrigger::Budget);
    return;
  }
  // Same-instant backstop for a frame left open: the moment this fiber
  // yields the CPU (advance, wait, return), the engine runs this event at
  // the *current* virtual time and flushes whatever the burst left behind —
  // coalescing merges only same-instant sends and never delays an element
  // in virtual time.
  if (opened)
    self.machine().engine().schedule(
        self.machine().engine().now(),
        [st = coalesce_, s, epoch = p.epoch] {
          const auto& frame = st->frames[s];
          if (frame.epoch != epoch || frame.elements == 0) return;
          // Event context: no fiber to charge — carry the CPU cost as debt,
          // settled on the producer's next fiber-side flush.
          st->debt += ChannelConfig::kInjectOverhead * frame.elements +
                      st->send_overhead;
          const std::uint32_t n = frame.elements;
          const std::uint64_t wire = st->post_frame(s);
          st->retune(FlushTrigger::Idle, n, wire);
        });
}

void Stream::flush_frame(mpi::Rank& self, std::uint32_t slot,
                         FlushTrigger trigger) {
  CoalesceState& st = *coalesce_;
  auto& p = st.frames[slot];
  if (p.elements == 0) return;
  // One aggregate advance per frame replaces the per-element wake/advance
  // pair: n injections' worth of `o` plus one per-message o_s, plus any
  // debt left by event-context (backstop) flushes.
  const util::SimTime charge =
      st.debt + ChannelConfig::kInjectOverhead * p.elements + st.send_overhead;
  st.debt = 0;
  const std::uint32_t n = p.elements;
  const std::uint64_t wire = st.post_frame(slot);
  st.retune(trigger, n, wire);
  self.process().advance(charge);
}

void Stream::flush_all_frames(mpi::Rank& self, FlushTrigger trigger) {
  if (!coalesce_) return;
  // In ascending flow order, which fixes the order the frames are posted in.
  for (const std::uint32_t s : coalesce_->slot)
    if (s != CoalesceState::kNoSlot) flush_frame(self, s, trigger);
}

void Stream::isend(mpi::Rank& self, mpi::SendBuf element) {
  const int p = my_producer(self, "Stream::isend");
  inject(self, p, channel_->route(p), element);
}

void Stream::isend_to(mpi::Rank& self, int consumer, mpi::SendBuf element) {
  const int p = my_producer(self, "Stream::isend_to");
  if (consumer < 0 || consumer >= channel_->consumer_count())
    throw std::out_of_range("Stream::isend_to: consumer index out of range");
  // A Block consumer learns its counts only from the producers it roots, so
  // it would never count an element another consumer's producer sent it.
  if (!channel_->tree_termination() && consumer != channel_->route(p))
    throw std::invalid_argument(
        "Stream::isend_to: a Block producer may address only its own "
        "consumer");
  inject(self, p, consumer, element);
}

void Stream::inject(mpi::Rank& self, int p, int consumer,
                    mpi::SendBuf element) {
  if (element.on_wire() > element_size_)
    throw std::invalid_argument("Stream::isend: element larger than its datatype");
  // A sub-record carries the real bytes in 32 bits (and a wide wire size
  // as kWideWire).
  if (element.bytes > std::numeric_limits<std::uint32_t>::max())
    throw std::length_error("Stream::isend: real payload of 4 GiB or more");
  if (terminated_)
    throw std::logic_error("Stream::isend: stream already terminated");
  ensure_producer_state(self, p);

  if (coalesce_->resilient) {
    // Truncate replay logs with any durability progress first (smaller
    // replays), then react to crashes and rejoins observed since the last
    // send.
    drain_durable_acks(self);
    check_producer_membership(self);
  }

  // Credit-based backpressure: block until the in-flight window has room —
  // flushing first, since buffered elements count against the window and
  // only delivered elements can come back as credits. (Failover can return
  // a handful of duplicate credits, so the outstanding count is computed
  // underflow-safe.)
  const std::uint32_t window = credit_window();
  if (window > 0 && sent_ > acks_seen_ && sent_ - acks_seen_ >= window) {
    flush_all_frames(self, FlushTrigger::Credit);
    while (sent_ > acks_seen_ && sent_ - acks_seen_ >= window)
      await_credit(self);
  }

  ++sent_;
  coalesce_element(self, consumer, element);
}

void Stream::terminate(mpi::Rank& self) {
  terminate_impl(self);
  // Reached only on clean completion: a crashed producer's counters are
  // lost with it, like everything else about a fail-stop rank.
  flush_metrics(self);
}

void Stream::terminate_impl(mpi::Rank& self) {
  const int p = my_producer(self, "Stream::terminate");
  if (terminated_) return;
  if (self.failed()) {
    // A crashed rank's RAII termination must not emit protocol traffic.
    terminated_ = true;
    return;
  }
  // A producer that never sent still needs its resilience state here: its
  // term must route to the failover target, not to a dead consumer.
  ensure_producer_state(self, p);
  const bool resilient = coalesce_->resilient;
  if (resilient) {
    // Repair routing before the counts go out; the release wait below keeps
    // servicing crashes and rejoins until the root releases this producer.
    drain_durable_acks(self);
    check_producer_membership(self);
  }
  terminated_ = true;
  // Partial frames leave before the term so counts and order stay intact;
  // settle any backstop debt even when nothing is pending.
  flush_all_frames(self, FlushTrigger::Other);
  if (coalesce_->debt > 0) {
    self.process().advance(coalesce_->debt);
    coalesce_->debt = 0;
  }
  // The one term: this producer's per-flow element counts (nonzero entries
  // only), so its root can account for data still in flight. Flows are
  // logical consumer indices, so the counts hold even after a resilient
  // flow moved to a failover target.
  term_entries_.clear();
  for (std::size_t c = 0; c < coalesce_->slot.size(); ++c)
    if (const auto* p = coalesce_->frame_of(c); p != nullptr && p->sent > 0)
      term_entries_.push_back(TermEntry{c, p->sent});
  auto& machine = self.machine();
  auto post_term = [&](int root) {
    self.process().advance(machine.config().network.send_overhead);
    machine.post_send(context_, p, self.world_rank(),
                      channel_->comm().world_rank(channel_->consumer_rank(root)),
                      kTagTerm,
                      mpi::SendBuf::of(term_entries_.data(),
                                       term_entries_.size()));
    ++term_msgs_sent_;
  };
  int root = term_root(self);
  post_term(root);
  if (!resilient) return;
  // A resilient producer stays until its root releases it: the counts stay
  // resendable when the root moves (failover, rejoin, aggregator takeover),
  // and the replay logs stay alive until the root has everything it owes.
  while (true) {
    check_producer_membership(self);
    const int now_root = term_root(self);
    if (now_root != root) {
      // Rows are recorded idempotently, so a re-sent term is harmless.
      root = now_root;
      post_term(root);
    }
    // Durability acks last: nothing yields between the final drain and the
    // release probe, so an ack sent ahead of the release is never stranded.
    drain_durable_acks(self);
    mpi::Status st;
    if (machine.match_probe(durable_context_, self.world_rank(),
                            mpi::kAnySource, kTagRelease, &st)) {
      auto req = machine.post_recv(durable_context_, self.world_rank(),
                                   st.source, kTagRelease,
                                   mpi::RecvBuf::discard(sizeof(std::uint64_t)));
      self.wait(req);
      break;
    }
    park(self, "stream release wait");
  }
  // The release retires every replay log: everything sent is accounted for.
  for (std::size_t s = 0; s < coalesce_->logs.size(); ++s)
    coalesce_->logs[s].truncate(coalesce_->frames[s].sent);
}

int Stream::term_root(mpi::Rank& self) const {
  const CoalesceState& st = *coalesce_;
  if (!channel_->tree_termination()) {
    // Block: the current owner of this producer's one flow.
    const int flow = channel_->route(st.producer_index);
    return st.resilient ? st.redirect[static_cast<std::size_t>(flow)] : flow;
  }
  if (!st.resilient) return Channel::term_aggregator();
  const int aggregator = resilience::effective_aggregator(*channel_, self.machine());
  if (aggregator < 0)
    throw std::runtime_error(
        "Stream::terminate: every consumer of the resilient channel is "
        "unavailable");
  return aggregator;
}

void Stream::park(mpi::Rank& self, const char* what) {
  self.machine().add_probe_waiter(self.world_rank());
  self.process().set_state_note(blocked_note(what));
  self.process().suspend();
  self.process().set_state_note({});
}

const char* Stream::blocked_note(const char* what) {
  // Termination-progress snapshot for the engine's deadlock report. The
  // note pointer must outlive the suspension, so it renders into the
  // stream's own buffer.
  std::snprintf(state_note_buf_, sizeof state_note_buf_,
                "blocked in %s (ctx=%llu consumer=%d counts=%d terms_owed=%d "
                "matrix=%d released=%d announced=%d data=%llu/%llu)",
                what, static_cast<unsigned long long>(context_), my_consumer_,
                counts_known_ ? 1 : 0, rooted_pending_,
                matrix_satisfied_ ? 1 : 0, released_ ? 1 : 0,
                announced_ ? 1 : 0,
                static_cast<unsigned long long>(processed_data_),
                static_cast<unsigned long long>(expected_data_));
  return state_note_buf_;
}

void Stream::ensure_consumer_state(mpi::Rank& self) {
  if (my_consumer_ >= 0) return;
  my_consumer_ = channel_->my_consumer_index(self);
  if (my_consumer_ < 0)
    throw std::logic_error("Stream::operate: caller is not a consumer");
  const ChannelConfig& cfg = channel_->config();
  resilient_ = cfg.resilient();
  const auto producers = static_cast<std::size_t>(channel_->producer_count());
  const auto consumers = static_cast<std::size_t>(channel_->consumer_count());
  matrix_ = resilience::CountMatrix(static_cast<int>(producers),
                                    static_cast<int>(consumers));
  if (resilient_) {
    adopted_.assign(consumers, 0);
    // A rejoined rank (or a consumer attaching after crashes) must derive
    // the *current* aggregator, not assume slot 0.
    effective_aggregator_ =
        resilience::effective_aggregator(*channel_, self.machine());
    if (channel_->tree_termination()) announce_acked_.assign(consumers, 0);
  }
  recount_rooted(self);
  if (cfg.max_inflight > 0) {
    // Effective credit batch, clamped for liveness: a blocked producer has
    // max_inflight un-acked elements spread over the consumers it routes to
    // (1 under Block, up to C under Directed), so by pigeonhole some
    // consumer holds >= ceil(window/spread) of them. Keeping the batch at or
    // below that bound guarantees consumers can never jointly hold a whole
    // window in sub-threshold batches (spread*(k-1) < window), i.e. a
    // blocked producer always gets a flush; the stream tail is covered by
    // the term/exhaustion flushes in handle(). From the starting batch the
    // consumer tracks the observed frame occupancy (one ack per drained
    // frame) within the clamp.
    const auto spread = channel_->tree_termination()
                            ? static_cast<std::uint32_t>(
                                  channel_->consumer_count())
                            : 1u;
    ack_limit_ = std::max(1u, (cfg.max_inflight + spread - 1) / spread);
    ack_every_ = std::min(ChannelConfig::kAckBatch, ack_limit_);
    credit_pending_.assign(producers, 0);
  }
}

void Stream::fan_out_term(mpi::Rank& self,
                          const std::vector<TermEntry>& entries) {
  // Each of the heap's (at most two) children gets a collective term; its
  // payload is sliced down to the counts of the child's own subtree. The
  // slice buffer is a reserved member, reused across children instead of
  // reallocating per slice.
  auto& machine = self.machine();
  const int first = 2 * my_consumer_ + 1;
  const int end = std::min(first + 2, channel_->consumer_count());
  for (int child = first; child < end; ++child) {
    term_slice_.clear();
    for (const TermEntry& e : entries)
      if (Channel::term_in_subtree_of(static_cast<int>(e.consumer), child))
        term_slice_.push_back(e);
    self.process().advance(machine.config().network.send_overhead);
    machine.post_send(context_, channel_->consumer_rank(my_consumer_),
                      self.world_rank(),
                      channel_->comm().world_rank(channel_->consumer_rank(child)),
                      kTagTerm,
                      mpi::SendBuf::of(term_slice_.data(), term_slice_.size()));
    ++term_msgs_sent_;
  }
}

void Stream::handle_distributed_term(mpi::Rank& self, Payload payload) {
  // The collective term from the tree parent (a consumer sees exactly one):
  // adopt my announced total and keep the fan-out going.
  const auto consumers = static_cast<std::size_t>(channel_->consumer_count());
  const std::size_t n = std::min(payload.size() / sizeof(TermEntry), consumers);
  term_entries_.resize(n);
  if (n > 0)
    std::memcpy(term_entries_.data(), payload.data(), n * sizeof(TermEntry));
  expected_data_ = 0;
  for (const TermEntry& e : term_entries_)
    if (e.consumer == static_cast<std::uint64_t>(my_consumer_))
      expected_data_ = e.count;
  counts_known_ = true;
  fan_out_term(self, term_entries_);
}

void Stream::flush_credits(mpi::Rank& self, int producer) {
  std::uint64_t count = credit_pending_[static_cast<std::size_t>(producer)];
  if (count == 0) return;
  credit_pending_[static_cast<std::size_t>(producer)] = 0;
  auto& machine = self.machine();
  self.process().advance(machine.config().network.send_overhead);
  // One ack message carries the whole batch; the producer adds its count to
  // the window. post_send copies the payload out, so the stack local is safe.
  machine.post_send(ack_context_, my_consumer_, self.world_rank(),
                    channel_->comm().world_rank(Channel::producer_rank(producer)),
                    kTagAck, mpi::SendBuf::of(&count, 1));
  ++ack_msgs_sent_;
}

void Stream::flush_all_credits(mpi::Rank& self) {
  for (std::size_t p = 0; p < credit_pending_.size(); ++p)
    flush_credits(self, static_cast<int>(p));
}

void Stream::await_credit(mpi::Rank& self) {
  const sim::SpanScope span(self.process(), obs::SpanKind::SendBlocked,
                            "credit-wait");
  std::uint64_t granted = 0;
  auto req = self.machine().post_recv(ack_context_, self.world_rank(),
                                      mpi::kAnySource, kTagAck,
                                      mpi::RecvBuf::of(&granted, 1), {},
                                      /*fused_wake=*/true);
  if (coalesce_->resilient) {
    // A credit may never come if the consumer holding it just crashed: wait
    // interruptibly, re-evaluating failover at every membership change
    // (kill_rank and restart_rank wake every live rank). Rebinding replays
    // the lost elements to the adopting consumer, whose consumption then
    // produces the acks this loop is blocked on.
    while (!req->complete) {
      req->waiter_pid = self.process().id();
      self.process().set_state_note("blocked in stream credit wait");
      self.process().suspend();
      check_producer_membership(self);
    }
    req->waiter_pid = -1;
    self.process().set_state_note({});
  }
  self.wait(req);
  // Each ack carries the batch size it returns; malformed/synthetic acks
  // conservatively count one credit.
  acks_seen_ += (!req->status.synthetic && req->status.bytes >= sizeof granted &&
                 granted > 0)
                    ? granted
                    : 1;
}

// ---------------------------------------------------------------------------
// Resilience (ds::resilience): failover, replay, durability. Everything in
// this block is inert unless ChannelConfig::checkpoint_interval > 0.
// ---------------------------------------------------------------------------

void Stream::check_producer_membership(mpi::Rank& self) {
  CoalesceState& st = *coalesce_;
  const std::uint64_t epoch = self.machine().membership_epoch();
  if (st.seen_epoch == epoch) return;
  st.seen_epoch = epoch;
  // Both walks run on every change, crash or restart. After crashes alone
  // the rebalance walk finds nothing to move: every flow still pointed away
  // from home has a dead home. After restarts alone the failover walk finds
  // no dead target: each target was live when it was chosen, and every
  // later death changed the epoch and ran that walk.
  fail_over_flows(self);
  rebalance_flows(self);
}

void Stream::fail_over_flows(mpi::Rank& self) {
  CoalesceState& st = *coalesce_;
  auto& machine = self.machine();
  bool any = false;
  const auto consumers = static_cast<std::size_t>(channel_->consumer_count());
  for (std::size_t flow = 0; flow < consumers; ++flow) {
    const int phys = st.redirect[flow];
    if (!machine.rank_failed(
            channel_->comm().world_rank(channel_->consumer_rank(phys))))
      continue;
    const int target =
        resilience::failover_target(*channel_, phys, machine);
    if (target < 0)
      throw std::runtime_error(
          "stream failover: every consumer of the resilient channel is dead");
    any = true;
    ++st.failovers;
    st.redirect[flow] = target;

    // A frame still being packed follows the flow to its new target.
    const int dst_world =
        channel_->comm().world_rank(channel_->consumer_rank(target));
    if (auto* p = st.frame_of(flow); p != nullptr && p->elements > 0)
      p->dst_world = dst_world;
    // A rebind back home (the dead adopter's failover target can be the
    // flow's own rejoined slot) counts as reconciliation with the current
    // incarnation — the replay below is the resynchronization.
    if (target == static_cast<int>(flow))
      st.flow_incarnation[flow] = machine.incarnation(dst_world);
    replay_flow(self, flow, dst_world);
  }
  if (any) self.process().trace_instant("failover");
}

void Stream::replay_flow(mpi::Rank& self, std::size_t flow, int dst_world) {
  const sim::SpanScope span(self.process(), obs::SpanKind::StreamReplay,
                            "replay");
  CoalesceState& st = *coalesce_;
  auto& machine = self.machine();
  // An unopened flow has an empty log: nothing to hand over or replay.
  const std::uint32_t slot = st.slot[flow];
  if (slot == CoalesceState::kNoSlot) return;
  // A frame the flow still has open holds its newest elements: it must
  // leave after every replayed frame, or the adopter's cursor would pass
  // the replayed sequences and drop them as duplicates. Its backstop, which
  // would post it at the first advance below, is disarmed; the fiber
  // flushes it once the replay is out.
  CoalesceState::Pending& packing = st.frames[slot];
  const bool flush_open = packing.elements > 0;
  if (flush_open) ++packing.epoch;
  const std::uint64_t durable = st.logs[slot].durable_seq();
  // Hand the flow over: the durable point travels ahead of the replayed
  // frames (per-source FIFO), so the receiver's cursor skips whatever the
  // previous owner already made durable — even mid-frame.
  if (durable > 0) {
    self.process().trace_instant("handoff");
    const FlowHandoff handoff{durable, static_cast<std::uint32_t>(flow), 0};
    self.process().advance(st.send_overhead);
    machine.post_send(context_, st.producer_index, st.src_world, dst_world,
                      kTagHandoff, mpi::SendBuf::of(&handoff, 1));
  }
  // Replay: re-post the retained frames verbatim (they are self-describing:
  // flow id and sequences travel in the epoch header). The log is read
  // afresh after every advance, so no view into it outlives a yield.
  std::size_t at = 0;
  for (std::size_t i = 0; i < st.logs[slot].frame_count(); ++i) {
    self.process().advance(st.send_overhead);
    const resilience::ReplayLog& log = st.logs[slot];
    const resilience::RetainedFrame& rf = log.frames()[i];
    machine.post_send(context_, st.producer_index, st.src_world, dst_world,
                      kTagFrame,
                      mpi::SendBuf{log.bytes().data() + at, rf.bytes, rf.wire});
    st.replayed_elements += rf.elements;
    at += rf.bytes;
  }
  if (flush_open) flush_frame(self, slot, FlushTrigger::Other);
}

void Stream::rebalance_flows(mpi::Rank& self) {
  CoalesceState& st = *coalesce_;
  auto& machine = self.machine();
  bool any = false;
  const auto consumers = static_cast<std::size_t>(channel_->consumer_count());
  for (std::size_t flow = 0; flow < consumers; ++flow) {
    const int home_world = channel_->comm().world_rank(
        channel_->consumer_rank(static_cast<int>(flow)));
    // Still away, or dead at home: crashes are fail_over_flows' job.
    if (machine.rank_failed(home_world)) continue;
    auto* p = st.frame_of(flow);
    const std::uint64_t sent = p != nullptr ? p->sent : 0;
    if (st.redirect[flow] != static_cast<int>(flow)) {
      // Hand the flow back to its rejoined home slot. New elements go home;
      // the previous owner gets a handback marker telling it to ship its
      // cursor to the home slot (per-source FIFO puts the marker after every
      // element it received from us). Only flows this producer actually
      // uses need a marker — under Block that includes the zero-send routed
      // flow, whose term root moves with it.
      const int prev = st.redirect[flow];
      st.redirect[flow] = static_cast<int>(flow);
      st.flow_incarnation[flow] = machine.incarnation(home_world);
      if (p != nullptr && p->elements > 0) p->dst_world = home_world;
      if (sent > 0 ||
          (!channel_->tree_termination() &&
           channel_->route(st.producer_index) == static_cast<int>(flow))) {
        const FlowHandoff marker{sent, static_cast<std::uint32_t>(flow), 0};
        self.process().advance(st.send_overhead);
        machine.post_send(
            context_, st.producer_index, st.src_world,
            channel_->comm().world_rank(channel_->consumer_rank(prev)),
            kTagSync, mpi::SendBuf::of(&marker, 1));
        ++st.rebalances;
        any = true;
      }
      continue;
    }
    const int inc = machine.incarnation(home_world);
    if (inc != st.flow_incarnation[flow]) {
      // Crash + restart that this producer never observed while it was
      // away from the stream: frames sent during the dead window were
      // dropped at the dead mailbox. Resynchronize the new incarnation —
      // durable point first, then the whole undurable tail.
      st.flow_incarnation[flow] = inc;
      replay_flow(self, flow, home_world);
      ++st.rebalances;
      any = true;
    }
  }
  if (any) self.process().trace_instant("rejoin-rebalance");
}

void Stream::check_consumer_failover(mpi::Rank& self) {
  auto& machine = self.machine();
  if (consumer_epoch_ == machine.membership_epoch()) return;
  consumer_epoch_ = machine.membership_epoch();

  const int consumers = channel_->consumer_count();
  for (int c = 0; c < consumers; ++c) {
    const auto cz = static_cast<std::size_t>(c);
    // After the release no flow moves any more: the producers have retired
    // their replay logs, so an adopted flow could never be satisfied.
    if (c == my_consumer_ || adopted_[cz] != 0 || released_) continue;
    const int world = channel_->comm().world_rank(channel_->consumer_rank(c));
    if (!machine.rank_failed(world) ||
        resilience::failover_target(*channel_, c, machine) != my_consumer_)
      continue;
    adopted_[cz] = 1;
    // A freshly owned slot may have unmet counts: re-derive the verdict.
    matrix_satisfied_ = false;
  }
  if (channel_->tree_termination()) {
    const int aggregator =
        resilience::effective_aggregator(*channel_, machine);
    if (aggregator >= 0 && aggregator != effective_aggregator_) {
      effective_aggregator_ = aggregator;
      if (my_consumer_ == aggregator) {
        // Taking over the role mid-protocol: collect announce-acks afresh.
        // The release invariant guarantees soundness — either no producer
        // was released yet (they are still blocked and re-send their
        // counted terms here) or every live consumer, this one included,
        // already holds the matrix from the old aggregator's announce.
        announced_ = false;
        std::fill(announce_acked_.begin(), announce_acked_.end(), 0);
      }
    }
  }
  // Adoption, takeover and producer crashes all change what a root waits
  // for.
  recount_rooted(self);
}

bool Stream::roots(int producer) const noexcept {
  if (channel_->tree_termination())
    return my_consumer_ == effective_aggregator_;
  const int flow = channel_->route(producer);
  return flow == my_consumer_ ||
         (resilient_ && adopted_[static_cast<std::size_t>(flow)] != 0);
}

void Stream::recount_rooted(mpi::Rank& self) {
  rooted_pending_ = 0;
  if (!channel_->tree_termination() || my_consumer_ == effective_aggregator_) {
    for (int p = 0; p < channel_->producer_count(); ++p)
      if (!matrix_.has_row(p) && roots(p) && !producer_failed(self, p))
        ++rooted_pending_;
    // A root that gained producers (an adoption) waits for their terms
    // again. A dead producer's unreported counts are waived: its undurable
    // in-flight tail is unrecoverable by definition.
    if (rooted_pending_ > 0) counts_known_ = false;
  }
  update_matrix_exhaustion(self);
}

bool Stream::producer_failed(mpi::Rank& self, int producer) const {
  return resilient_ && self.machine().rank_failed(channel_->comm().world_rank(
                           Channel::producer_rank(producer)));
}

void Stream::update_matrix_exhaustion(mpi::Rank& self) {
  if (!resilient_ || !counts_known_ || matrix_satisfied_) return;
  const int consumers = channel_->consumer_count();
  for (int s = 0; s < consumers; ++s) {
    if (s != my_consumer_ && adopted_[static_cast<std::size_t>(s)] == 0)
      continue;
    for (const resilience::CountMatrix::Cell& cell : matrix_.flow(s)) {
      const auto p = static_cast<int>(cell.producer);
      // A dead producer's missing tail is unrecoverable (fail-stop): only
      // its durable/delivered prefix counts, so the shortfall is waived.
      if (dedup_.next_seq(p, s) < cell.count && !producer_failed(self, p))
        return;  // a live producer's counted elements are still in flight
    }
  }
  matrix_satisfied_ = true;
}

void Stream::seal_matrix(mpi::Rank& self) {
  matrix_.seal();
  counts_known_ = true;
  expected_data_ = matrix_.flow_total(my_consumer_);
  update_matrix_exhaustion(self);
}

void Stream::send_announce_ack(mpi::Rank& self, int to_world) {
  auto& machine = self.machine();
  self.process().advance(machine.config().network.send_overhead);
  machine.post_send(context_, channel_->consumer_rank(my_consumer_),
                    self.world_rank(), to_world, kTagAnnounceAck,
                    mpi::SendBuf::synthetic(0));
  ++term_msgs_sent_;
}

void Stream::progress_termination(mpi::Rank& self) {
  if (released_) return;
  const bool tree = channel_->tree_termination();
  const bool root = !tree || my_consumer_ == effective_aggregator_;
  if (!counts_known_) {
    // Gather: a root knows its counts once every producer it roots has
    // reported or died.
    if (!root || rooted_pending_ > 0) return;
    seal_matrix(self);
    if (!resilient_ && tree) {
      // Distribution on non-resilient trees: fan the per-consumer totals
      // down the consumer tree.
      term_entries_.clear();
      for (int c = 0; c < channel_->consumer_count(); ++c)
        if (const std::uint64_t total = matrix_.flow_total(c); total > 0)
          term_entries_.push_back(
              TermEntry{static_cast<std::uint64_t>(c), total});
      fan_out_term(self, term_entries_);
    }
  }
  // The release is resilient-only: it retires the producers' replay logs.
  if (!resilient_) return;
  if (!root) {
    // A tree consumer's deferred announce-ack (registered durable point):
    // once everything it owes the matrix is consumed, run the flush hook so
    // it is also durable, then commit. The hook may suspend the fiber; if
    // an adoption lands meanwhile the ack stays owed — the aggregator's
    // crash/rejoin-keyed re-announce re-collects the barrier anyway.
    if (announce_ack_owed_to_ < 0 || !matrix_satisfied_) return;
    durable_point_();
    if (!matrix_satisfied_) return;
    send_announce_ack(self, announce_ack_owed_to_);
    announce_ack_owed_to_ = -1;
    return;
  }
  if (tree && !announce_collected(self)) return;
  if (!matrix_satisfied_) return;
  if (durable_point_) {
    // The root certifies its own durability last: everything it owes the
    // matrix is consumed and flushed before the release commits. The hook
    // may suspend (file I/O); if a crash or rejoin landed under the flush,
    // bail and let the next receive step re-derive the state first.
    durable_point_();
    if (!matrix_satisfied_ ||
        self.machine().membership_epoch() != consumer_epoch_)
      return;
  }
  release(self);
}

bool Stream::announce_collected(mpi::Rank& self) {
  auto& machine = self.machine();
  const int consumers = channel_->consumer_count();
  // (Re-)announce the matrix. Membership changes reset the send decision so
  // a consumer that rejoined (fresh state, never acked) is covered; sends
  // are idempotent and ack-gated, so this stays bounded by membership
  // events, not poll iterations.
  const std::uint64_t epoch = machine.membership_epoch();
  if (!announced_ || epoch != announce_epoch_) {
    // Membership moved since the last announce: an adoption may have routed
    // replayed (undurable) elements to a consumer that already acked, so
    // the barrier is collected afresh — with durability-gated acks each
    // consumer then re-certifies its flush state before re-acking.
    if (announced_)
      std::fill(announce_acked_.begin(), announce_acked_.end(), 0);
    announced_ = true;
    announce_epoch_ = epoch;
    announce_acked_[static_cast<std::size_t>(my_consumer_)] = 1;
    // Every send references the one sealed copy of the cells; the fabric
    // charges each the full P x C matrix.
    const mpi::SharedBuf announce = matrix_.share();
    for (int c = 0; c < consumers; ++c) {
      if (c == my_consumer_ ||
          announce_acked_[static_cast<std::size_t>(c)] != 0 ||
          !resilience::consumer_available(*channel_, c, machine))
        continue;
      self.process().advance(machine.config().network.send_overhead);
      machine.post_send(
          context_, channel_->consumer_rank(my_consumer_), self.world_rank(),
          channel_->comm().world_rank(channel_->consumer_rank(c)),
          kTagAnnounce, announce);
      ++term_msgs_sent_;
    }
  }
  for (int c = 0; c < consumers; ++c)
    if (c != my_consumer_ && announce_acked_[static_cast<std::size_t>(c)] == 0 &&
        resilience::consumer_available(*channel_, c, machine))
      return false;  // barrier still collecting
  return true;
}

void Stream::release(mpi::Rank& self) {
  // Commit the release in one atomic fiber step (post_send never yields;
  // the overhead is charged once after the burst): either nobody was
  // released or everybody was, so a crash of this root can never strand a
  // half-released tree — the property the new-aggregator takeover in
  // check_consumer_failover relies on. Producers hear it on
  // durable_context_ (their wait loop probes there), tree consumers on
  // context_.
  auto& machine = self.machine();
  int releases = 0;
  for (int p = 0; p < channel_->producer_count(); ++p) {
    if (!roots(p) || producer_failed(self, p)) continue;
    machine.post_send(durable_context_, channel_->consumer_rank(my_consumer_),
                      self.world_rank(),
                      channel_->comm().world_rank(Channel::producer_rank(p)),
                      kTagRelease, mpi::SendBuf::synthetic(0));
    ++releases;
  }
  if (channel_->tree_termination()) {
    for (int c = 0; c < channel_->consumer_count(); ++c) {
      if (c == my_consumer_ ||
          !resilience::consumer_available(*channel_, c, machine))
        continue;
      machine.post_send(
          context_, channel_->consumer_rank(my_consumer_), self.world_rank(),
          channel_->comm().world_rank(channel_->consumer_rank(c)), kTagRelease,
          mpi::SendBuf::synthetic(0));
      ++releases;
    }
  }
  released_ = true;
  term_msgs_sent_ += static_cast<std::uint64_t>(releases);
  if (releases > 0)
    self.process().advance(machine.config().network.send_overhead *
                           static_cast<unsigned>(releases));
}

void Stream::handle_counted_term(mpi::Rank& self, const mpi::Status& status,
                                 Payload payload) {
  const int p = status.source;
  const auto consumers = static_cast<std::size_t>(channel_->consumer_count());
  const std::size_t n = std::min(payload.size() / sizeof(TermEntry), consumers);
  // Idempotent row write: a resilient producer re-sends its term every time
  // its root moves, and the row simply replaces its earlier copy.
  std::vector<std::uint64_t> row(consumers, 0);
  for (std::size_t i = 0; i < n; ++i) {
    TermEntry e;
    std::memcpy(&e, payload.data() + i * sizeof e, sizeof e);
    if (e.consumer < consumers) row[e.consumer] = e.count;
  }
  const bool had_row = matrix_.has_row(p);
  matrix_.set_row(p, row);
  if (had_row) return;
  // Counted only if recount_rooted counted it: rooted and alive (a death
  // since the last recount is corrected by the next one).
  if (roots(p) && !producer_failed(self, p)) --rooted_pending_;
}

void Stream::handle_sync(mpi::Rank& self, const mpi::Status& status,
                         Payload payload) {
  if (!resilient_ || status.synthetic) return;
  const int producers = channel_->producer_count();
  if (status.source >= 0 && status.source < producers) {
    // Handback marker from a producer: its flow returned to the home slot.
    // Ship this producer's cursor for the flow to the home slot (the marker
    // is FIFO-after every element the producer sent here, so the cursor is
    // final) and erase the local entry — the dedup filter's memory bound
    // under churn.
    if (payload.size() < sizeof(FlowHandoff)) return;
    FlowHandoff marker;
    std::memcpy(&marker, payload.data(), sizeof marker);
    const int flow = static_cast<int>(marker.flow);
    if (flow < 0 || flow >= channel_->consumer_count() ||
        flow == my_consumer_)
      return;
    send_rebalance_sync(self, flow, status.source);
    if (adopted_[static_cast<std::size_t>(flow)] != 0) {
      // The flow's producers now report to the home slot.
      adopted_[static_cast<std::size_t>(flow)] = 0;
      recount_rooted(self);
    }
    return;
  }
  // Cursor sync from the adopter answering a handback marker: adopt it.
  if (payload.size() < sizeof(SyncEntry)) return;
  SyncEntry e;
  std::memcpy(&e, payload.data(), sizeof e);
  const int p = static_cast<int>(e.producer);
  const int flow = static_cast<int>(e.flow);
  if (p < 0 || p >= producers || flow < 0 || flow >= channel_->consumer_count())
    return;
  dedup_.advance_to(p, flow, e.next);
  update_matrix_exhaustion(self);
}

void Stream::send_rebalance_sync(mpi::Rank& self, int flow, int producer) {
  const std::uint64_t next = dedup_.next_seq(producer, flow);
  dedup_.erase(producer, flow);
  if (next == 0) return;  // nothing consumed: the home slot starts at 0
  const SyncEntry entry{static_cast<std::uint64_t>(producer),
                        static_cast<std::uint64_t>(flow), next};
  auto& machine = self.machine();
  self.process().advance(machine.config().network.send_overhead);
  machine.post_send(context_, channel_->consumer_rank(my_consumer_),
                    self.world_rank(),
                    channel_->comm().world_rank(channel_->consumer_rank(flow)),
                    kTagSync, mpi::SendBuf::of(&entry, 1));
}

void Stream::drain_durable_acks(mpi::Rank& self) {
  auto& machine = self.machine();
  mpi::Status st;
  while (machine.match_probe(durable_context_, self.world_rank(),
                             mpi::kAnySource, kTagDurable, &st)) {
    DurableAck ack;
    auto req = machine.post_recv(durable_context_, self.world_rank(),
                                 st.source, kTagDurable,
                                 mpi::RecvBuf::of(&ack, 1));
    self.wait(req);  // completes synchronously after a successful probe
    // Acks name flows this producer sent on, which are open; open() keeps
    // the durable point of any other flow, as an empty log would.
    if (!req->status.synthetic && req->status.bytes >= sizeof ack &&
        ack.flow < coalesce_->slot.size())
      coalesce_->logs[coalesce_->open(ack.flow)].truncate(ack.upto);
  }
}

void Stream::send_durable_ack(mpi::Rank& self, int producer, int flow,
                              std::uint64_t upto) {
  if (!dedup_.mark_durable(producer, flow, upto)) return;
  auto& machine = self.machine();
  const DurableAck ack{upto, static_cast<std::uint32_t>(flow), 0};
  self.process().advance(machine.config().network.send_overhead);
  machine.post_send(durable_context_, my_consumer_, self.world_rank(),
                    channel_->comm().world_rank(Channel::producer_rank(producer)),
                    kTagDurable, mpi::SendBuf::of(&ack, 1));
  ++durable_acks_sent_;
}

void Stream::flush_durable_acks(mpi::Rank& self) {
  dedup_.for_each([&](int producer, int flow, std::uint64_t next) {
    send_durable_ack(self, producer, flow, next);
  });
}

void Stream::ack_durable(mpi::Rank& self) {
  if (channel_ == nullptr || !channel_->config().resilient()) return;
  ensure_consumer_state(self);
  flush_durable_acks(self);
}

void Stream::account_data_element(mpi::Rank& self, int producer) {
  // Batched credit return: ack every ack_every_-th consumed element per
  // producer; stragglers flush on terms and at exhaustion.
  if (credit_pending_.empty()) return;
  auto& pending = credit_pending_[static_cast<std::size_t>(producer)];
  if (++pending >= ack_every_) flush_credits(self, producer);
  if (exhausted()) flush_all_credits(self);
}

void Stream::begin_frame(const mpi::Status& status) {
  const std::byte* frame = message_->payload();
  FrameHeader header;
  std::memcpy(&header, frame, sizeof header);
  frame_left_ = header.elements;
  frame_elements_ = header.elements;
  frame_cursor_ = kFrameOverhead;
  frame_source_ = status.source;
  if (resilient_) {
    EpochHeader eh;
    std::memcpy(&eh, frame + kFrameOverhead, sizeof eh);
    frame_seq0_ = eh.seq0;
    frame_flow_ = static_cast<int>(eh.flow);
    frame_cursor_ += kEpochOverhead;
  }
}

bool Stream::consume_frame_element(mpi::Rank& self) {
  const std::byte* frame = message_->payload();
  SubHeader sub;
  std::memcpy(&sub, frame + frame_cursor_, sizeof sub);
  const std::size_t data_at = frame_cursor_ + kSubOverhead;
  // A wide element is its frame's only one: the rest of the frame is it.
  const std::size_t wire =
      sub.wire == kWideWire ? message_->bytes - data_at : sub.wire;
  // The element is consumed once unpacked — cursor and counts move before
  // the operator runs, so a throwing operator leaves the frame walkable.
  const std::uint64_t seq = frame_seq0_ + (frame_elements_ - frame_left_);
  frame_cursor_ += kSubOverhead + sub.data;
  --frame_left_;
  // Exactly-once admission: a replayed element the filter has already seen
  // is unpacked but never reaches the operator, the processed count, or the
  // credit accounting — from every accounting angle it never arrived.
  const bool admit =
      !resilient_ || dedup_.admit(frame_source_, frame_flow_, seq);
  if (admit) {
    ++processed_data_;
    if (operator_) {
      StreamElement el{sub.data > 0 ? frame + data_at : nullptr, wire,
                       frame_source_};
      operator_(el);
    }
  }
  // Drained: the frame's send op goes back to its pool before the
  // accounting below can yield the fiber (a credit flush advances time).
  if (frame_left_ == 0) message_.reset();
  if (admit) {
    update_matrix_exhaustion(self);
    account_data_element(self, frame_source_);
    // Without a registered durable point, processing counts as durable:
    // acknowledge at every epoch boundary.
    if (resilient_ && !durable_point_ &&
        (seq + 1) % channel_->config().checkpoint_interval == 0)
      send_durable_ack(self, frame_source_, frame_flow_, seq + 1);
  }
  if (frame_left_ == 0 && !credit_pending_.empty()) {
    // Close the loop with the producer's coalescer: one credit batch per
    // drained frame, never below kAckBatch nor above the liveness clamp —
    // and never below half that clamp (about half the credit window per
    // consumer): acking in window halves keeps a credit-blocked producer
    // refilling in large bursts. Without that floor the loop locks into
    // dribbles: each ack batch of k credits unblocks a k-element burst,
    // which flushes as a k-element frame, which retunes the batch back to k.
    const std::uint32_t target =
        std::min(ack_limit_, std::max({ChannelConfig::kAckBatch,
                                       frame_elements_, ack_limit_ / 2}));
    // Move halfway toward the target per frame: smooth against one-off
    // partial frames, converging in a few frames of steady occupancy.
    if (target > ack_every_)
      ack_every_ += (target - ack_every_ + 1) / 2;
    else
      ack_every_ -= (ack_every_ - target + 1) / 2;
  }
  return admit;
}

void Stream::handle(mpi::Rank& self, const mpi::Status& status,
                    Payload payload) {
  if (status.tag == kTagTerm) {
    // From a producer, its counted term; from a consumer, the totals fanned
    // down a non-resilient tree.
    if (status.source < channel_->producer_count())
      handle_counted_term(self, status, payload);
    else
      handle_distributed_term(self, payload);
    // A term means a producer (or the whole tree) has gone quiet: return
    // every credit still held back so no producer tail blocks on a partial
    // batch.
    if (!credit_pending_.empty()) flush_all_credits(self);
    return;
  }
  if (status.tag == kTagHandoff) {
    // Control flow, not an element: adopt the flow's durable point.
    if (resilient_ && payload.size() >= sizeof(FlowHandoff)) {
      FlowHandoff handoff;
      std::memcpy(&handoff, payload.data(), sizeof handoff);
      dedup_.advance_to(status.source, static_cast<int>(handoff.flow),
                        handoff.durable);
      update_matrix_exhaustion(self);
    }
    return;
  }
  if (status.tag == kTagAnnounce) {
    if (resilient_ && matrix_.adopt(message_->shared_payload(), payload)) {
      // The announce carries every producer's final row, shared with the
      // announcer rather than copied: should this consumer take the
      // aggregator role over, no term is owed any more (the adopted matrix
      // holds every row).
      seal_matrix(self);
      // Ack to whoever announced (the role may move under us; the reply
      // address, not the derived aggregator, is what keeps the barrier
      // consistent across takeovers). Announces are idempotent — re-ack
      // every copy. With a registered durable point the ack is deferred:
      // it must certify that everything this consumer owes the matrix is
      // consumed *and* flushed durable, so progress_termination sends it
      // after the hook runs.
      const int announcer = channel_->comm().world_rank(status.source);
      const bool deferred = static_cast<bool>(durable_point_);
      announce_ack_owed_to_ = deferred ? announcer : -1;
      if (!deferred) send_announce_ack(self, announcer);
    }
    return;
  }
  if (status.tag == kTagAnnounceAck) {
    const int c = status.source - channel_->producer_count();
    if (!announce_acked_.empty() && c >= 0 && c < channel_->consumer_count())
      announce_acked_[static_cast<std::size_t>(c)] = 1;
    return;
  }
  if (status.tag == kTagRelease) {
    released_ = true;
    return;
  }
  if (status.tag == kTagSync) handle_sync(self, status, payload);
}

// Inline: operate_while runs this once per element.
inline Stream::RecvStep Stream::receive_step(
    mpi::Rank& self, const std::function<bool()>& keep_going, bool wait) {
  // Re-react to crashes and rejoins before judging exhaustion: either may
  // be exactly what moves termination (an adoption, a takeover of the
  // aggregator role, a dead producer's waived term).
  if (resilient_) check_consumer_failover(self);
  progress_termination(self);
  if (exhausted() || (keep_going && !keep_going())) return RecvStep::Stop;
  // First-come-first-served across every producer: whichever frame arrives
  // next gets processed, regardless of which peer sent it. A partially
  // drained frame is consumed to completion before the mailbox is touched
  // again (frames preserve per-(context,src) order; arrival interleaving
  // across sources happens at frame granularity).
  if (frame_left_ > 0)
    return consume_frame_element(self) ? RecvStep::Element : RecvStep::Progress;
  return receive_message(self, wait);
}

Stream::RecvStep Stream::receive_message(mpi::Rank& self, bool wait) {
  auto& machine = self.machine();
  // A non-resilient stream's idle wait is one blocking wildcard receive
  // whose recv overhead is fused into the wake-up. Everything else probes
  // first; after a successful probe the receive completes synchronously
  // inside post_recv, so wait() never blocks and charges o_r on the spot.
  const bool fused = wait && !resilient_;
  mpi::Status status;  // wildcard source and tag until a probe fills it
  if (!fused && !machine.match_probe(context_, self.world_rank(),
                                     mpi::kAnySource, mpi::kAnyTag, &status)) {
    if (!wait) return RecvStep::Stop;
    // A resilient stream never parks in a plain blocking receive.
    park(self, "stream poll");
    return RecvStep::Progress;
  }
  auto req = machine.post_recv(context_, self.world_rank(), status.source,
                               status.tag, mpi::RecvBuf::borrowed(), {}, fused);
  self.wait(req);
  message_ = std::move(req->message);
  if (req->status.tag == kTagFrame) {
    // One aggregate recv-overhead advance was charged for the message; its
    // elements now drain in place with no further machine traffic, and the
    // frame is held until its last element is consumed.
    begin_frame(req->status);
    return RecvStep::Progress;
  }
  handle(self, req->status, payload_of(message_));
  message_.reset();
  return RecvStep::Progress;
}

std::uint64_t Stream::operate(mpi::Rank& self) {
  return operate_while(self, [] { return true; });
}

std::uint64_t Stream::operate_while(mpi::Rank& self,
                                    const std::function<bool()>& keep_going) {
  ensure_consumer_state(self);
  const sim::SpanScope span(self.process(), obs::SpanKind::StreamOperate,
                            "stream-operate");
  std::uint64_t processed = 0;
  RecvStep step;
  while ((step = receive_step(self, keep_going, /*wait=*/true)) !=
         RecvStep::Stop)
    if (step == RecvStep::Element) ++processed;
  if (exhausted()) flush_metrics(self);
  return processed;
}

bool Stream::poll_one(mpi::Rank& self) {
  ensure_consumer_state(self);
  // Terminations are control flow, not elements: consume them silently and
  // keep looking, so the return value counts data elements only (matching
  // operate_while accounting). Replay duplicates are likewise absorbed.
  while (true) {
    const RecvStep step = receive_step(self, {}, /*wait=*/false);
    if (step != RecvStep::Progress) return step == RecvStep::Element;
  }
}

// ---------------------------------------------------------------------------
// Metrics lifecycle flush (ds::obs). Counters accumulate across the rank's
// streams, so a rank using several channels reports its per-role totals.
// ---------------------------------------------------------------------------

void Stream::flush_metrics(mpi::Rank& self) {
  auto* m = self.machine().metrics();
  if (m == nullptr || metrics_flushed_) return;
  metrics_flushed_ = true;
  const int r = self.world_rank();
  const StreamStats s = stats();
  const auto add = [&](const char* name, std::uint64_t value) {
    m->counter(name, r).add(value);
  };
  // Channel::create rejects dual-role ranks, so the role is one or the
  // other; only a consumer ever sets my_consumer_.
  if (my_consumer_ < 0) {
    add("stream.elements_sent", s.elements_sent);
    add("stream.frames_sent", s.frames_sent);
    add("stream.credits_received", s.credits_received);
    add("stream.replayed_elements", s.replayed_elements);
    add("stream.failovers", s.failovers);
    add("stream.rebalances", s.rebalances);
    add("stream.retained_elements", s.retained_elements);
  } else {
    add("stream.elements_consumed", s.elements_consumed);
    add("stream.ack_messages", s.ack_messages);
    add("stream.duplicates_dropped", s.duplicates_dropped);
    add("stream.dedup_entries", s.dedup_entries);
    add("stream.durable_acks", s.durable_acks);
  }
  add("stream.term_messages", s.term_messages);
}

}  // namespace ds::stream
