// ds::decouple — the typed, RAII pipeline facade over the MPIStream layer.
//
// The low-level API (GroupPlan / Channel / Stream, paper Sec. III-A) stays
// deliberately close to the paper's C interface: raw byte elements, manual
// channel release, hand-rolled role dispatch. Every decoupled application
// repeated the same ~100 lines of boilerplate around it. This facade fuses
// those steps into one declarative object:
//
//   auto pipeline = decouple::Pipeline::over(self, self.world())
//                       .with_stride(16)          // 1 helper per 16 ranks
//                       .with_worker_comm();
//   auto faces = pipeline.stream<FaceHeader>(max_face_bytes, options);
//   pipeline.run(worker_fn, helper_fn);           // role dispatch
//
// One role model: stages, and streams between them.
//  * Stages — stage() appends a role group to an ordered chain of pairwise
//    disjoint groups of parent ranks. A split (a GroupPlan stride, a plan,
//    an explicit helper set or a node placement) is the two-stage chain:
//    workers are stage 0, helpers stage 1, and run(worker_fn, helper_fn) is
//    run_stages({worker_fn, helper_fn}). A pipeline declares a split or
//    stages, not both.
//  * Streams — every stream links a producer stage to a consumer stage
//    (stream_between). On a split, stream() is the workers -> helpers
//    stream and a reverse stream names its stages:
//    stream_between(helper_stage(), worker_stage()). Only the ranks of a
//    stream's two stages hold it; every rank joins its channel's collective
//    creation.
//
// Around that model, lifetimes are RAII and elements typed. run_stages()
// creates every declared channel in declaration order (the collective
// order); when a stage function returns, that stage's outgoing streams
// terminate, which unblocks the next stage's operate(), so end-of-stream
// propagates down the chain; channels are released when the Pipeline
// leaves scope. TypedStream<Record> serializes trivially-copyable records
// (plus an optional byte payload) and hands consumers decoded
// Element<Record> values; RawStream keeps the byte-level interface.
//
// Collective discipline: every member of the parent communicator must
// declare the same split (or stages) and the same streams in the same order,
// then call run() / run_stages(). Stream declaration order doubles as the
// channel-creation order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/channel.hpp"
#include "core/group_plan.hpp"
#include "core/stream.hpp"
#include "mpi/comm.hpp"
#include "mpi/group.hpp"

namespace ds::mpi {
class Rank;
}

namespace ds::decouple {

class Context;
class Pipeline;

using Mapping = stream::ChannelConfig::Mapping;

/// Predicate over a parent-communicator rank, for stage(). Evaluated with
/// the same arguments on every rank, so it must be a pure function of the
/// rank number.
using RolePredicate = std::function<bool(int parent_rank)>;

/// One stream's configuration: its channel's. Pipeline sets channel_id (a
/// fixed base + declaration index) and applies its with_resilience interval.
using StreamOptions = stream::ChannelConfig;

/// A decoded stream element, valid only during the handler invocation.
template <typename Record>
struct Element {
  Record record{};                     ///< zeroed for synthetic elements
  const std::byte* payload = nullptr;  ///< bytes after the record (real only)
  std::size_t payload_bytes = 0;       ///< wire bytes after the record
  int producer = -1;                   ///< producer index in the channel
  bool synthetic = false;              ///< modeled element: no real bytes

  /// Copy `count` payload items of U into `out` (real elements only; the
  /// record usually states how many items are meaningful). Rejects counts a
  /// corrupt or mismatched record header could smuggle past the wire size.
  template <typename U>
  void payload_to(std::vector<U>& out, std::size_t count) const {
    static_assert(std::is_trivially_copyable_v<U>);
    if (count * sizeof(U) > payload_bytes)
      throw std::length_error(
          "decouple: record-declared payload exceeds the element's wire size");
    out.resize(count);
    if (count > 0) std::memcpy(out.data(), payload, count * sizeof(U));
  }
};

/// An undecoded element for payload-only streams.
struct RawElement {
  const std::byte* data = nullptr;  ///< null for synthetic elements
  std::size_t bytes = 0;            ///< wire size
  int producer = -1;                ///< producer index in the channel
  bool synthetic = false;
};

/// Role-aware RAII wrapper around one attached Stream and its channel,
/// owned by a Pipeline on the ranks of the stream's two stages and obtained
/// inside run() via Context::operator[]. Knows its Rank, so no call threads
/// `self` through; producers terminate automatically when their role
/// function returns, and the channel is released (collectively over its
/// members) when the stream is destroyed.
class StreamBase {
 public:
  StreamBase(const StreamBase&) = delete;
  StreamBase& operator=(const StreamBase&) = delete;
  virtual ~StreamBase();

  // ---- producer side ----
  /// Signal end-of-stream now (paper's MPIStream_Terminate). Idempotent,
  /// and implied by the role function returning.
  void terminate();

  // ---- consumer side ----
  /// Resilient streams: acknowledge that everything consumed so far has
  /// durable effects (e.g. after a file flush); see
  /// stream::Stream::ack_durable. No-op otherwise.
  void ack_durable();
  /// Resilient streams, any mapping: register the hook the termination
  /// protocol runs before this consumer commits — a root runs it before
  /// releasing its producers, a tree consumer before its announce-ack — and
  /// with it make durability manual: the consumer acknowledges only through
  /// ack_durable, never at epoch boundaries. The hook must flush external
  /// effects and call ack_durable — the release then certifies durability,
  /// so producers retire replay logs only once no consumer they reported to
  /// still buffers undurable state; see stream::Stream::set_durable_point.
  /// Register it before the first operate.
  void on_durable_point(std::function<void()> hook);
  /// Process elements FCFS until every routed producer terminated.
  std::uint64_t operate();
  /// Process arrivals while `keep_going()` stays true (re-checked after
  /// each element) and unterminated producers remain.
  std::uint64_t operate_while(const std::function<bool()>& keep_going);
  /// Consume pending arrivals without blocking until one data element has
  /// been handled; terminations on the way are absorbed silently. Returns
  /// true iff a data element was consumed.
  bool poll_one();
  /// Consume every data element already pending without blocking; returns
  /// the count (terminations absorbed on the way are not counted).
  std::uint64_t drain();

  // ---- introspection ----
  [[nodiscard]] bool is_producer() const;
  [[nodiscard]] bool is_consumer() const;
  [[nodiscard]] int producer_index() const;
  [[nodiscard]] int consumer_index() const;
  /// This rank's counters on the stream (see stream::StreamStats).
  [[nodiscard]] stream::StreamStats stats() const noexcept {
    return stream_.stats();
  }
  /// True once all routed producers have terminated (consumer side).
  [[nodiscard]] bool exhausted() const noexcept { return stream_.exhausted(); }
  [[nodiscard]] std::size_t element_size() const noexcept {
    return stream_.element_size();
  }
  [[nodiscard]] const stream::Channel& channel() const noexcept {
    return channel_;
  }

 protected:
  StreamBase() = default;
  /// Decode and hand one arrived element to the user handler.
  virtual void dispatch(const stream::StreamElement& element) = 0;

  void send_raw(mpi::SendBuf element);
  void send_raw_to(int consumer, mpi::SendBuf element);
  [[nodiscard]] mpi::Rank& self() const;

  std::vector<std::byte> scratch_;  ///< record+payload packing buffer

 private:
  friend class Pipeline;
  void bind(mpi::Rank& self, stream::Channel channel,
            std::size_t element_bytes, std::uint64_t stream_id);

  mpi::Rank* self_ = nullptr;
  stream::Channel channel_;
  stream::Stream stream_;
};

/// A stream of trivially-copyable `Record`s, each optionally followed by a
/// byte payload of up to the declared maximum. Producers call send*;
/// consumers set on_receive and call operate/poll.
template <typename Record>
class TypedStream final : public StreamBase {
  static_assert(std::is_trivially_copyable_v<Record>,
                "TypedStream records must be trivially copyable");

 public:
  using Handler = std::function<void(const Element<Record>&)>;

  /// Consumer: operator applied on-the-fly to each decoded element. Set it
  /// before operate()/poll_one(); elements arriving without a handler are
  /// consumed silently (termination accounting still runs).
  void on_receive(Handler handler) { handler_ = std::move(handler); }

  // ---- routed by the channel mapping ----
  void send(const Record& record) { send_raw(mpi::SendBuf::of(&record, 1)); }
  template <typename U>
  void send(const Record& record, const U* payload, std::size_t count) {
    send_raw(pack(record, payload, count));
  }
  /// Real record on the wire, modeled payload of `payload_wire_bytes`.
  void send_modeled(const Record& record, std::size_t payload_wire_bytes) {
    send_raw(
        mpi::SendBuf::header_only(record, sizeof(Record) + payload_wire_bytes));
  }
  /// Fully synthetic full-size element.
  void send_synthetic() { send_raw(mpi::SendBuf::synthetic(element_size())); }

  // ---- directed to an explicit consumer index (Directed mapping) ----
  void send_to(int consumer, const Record& record) {
    send_raw_to(consumer, mpi::SendBuf::of(&record, 1));
  }
  template <typename U>
  void send_to(int consumer, const Record& record, const U* payload,
               std::size_t count) {
    send_raw_to(consumer, pack(record, payload, count));
  }
  void send_modeled_to(int consumer, const Record& record,
                       std::size_t payload_wire_bytes) {
    send_raw_to(consumer, mpi::SendBuf::header_only(
                              record, sizeof(Record) + payload_wire_bytes));
  }

 private:
  template <typename U>
  [[nodiscard]] mpi::SendBuf pack(const Record& record, const U* payload,
                                  std::size_t count) {
    static_assert(std::is_trivially_copyable_v<U>,
                  "TypedStream payloads must be trivially copyable");
    const std::size_t payload_bytes = count * sizeof(U);
    scratch_.resize(sizeof(Record) + payload_bytes);
    std::memcpy(scratch_.data(), &record, sizeof(Record));
    if (payload_bytes > 0)
      std::memcpy(scratch_.data() + sizeof(Record), payload, payload_bytes);
    return mpi::SendBuf{scratch_.data(), scratch_.size()};
  }

  void dispatch(const stream::StreamElement& el) override {
    if (!handler_) return;
    Element<Record> typed;
    typed.producer = el.producer;
    typed.synthetic = el.data == nullptr;
    if (el.data != nullptr) {
      // A truncated or mismatched element must not turn into an overread of
      // the wire payload: the record header has to be fully present.
      if (el.bytes < sizeof(Record))
        throw std::length_error(
            "decouple: element smaller than its record type");
      std::memcpy(&typed.record, el.data, sizeof(Record));
      typed.payload = el.data + sizeof(Record);
    }
    typed.payload_bytes = el.bytes > sizeof(Record) ? el.bytes - sizeof(Record) : 0;
    handler_(typed);
  }

  Handler handler_;
};

/// A payload-only stream (no record header): raw bytes in, raw bytes out.
class RawStream final : public StreamBase {
 public:
  using Handler = std::function<void(const RawElement&)>;

  void on_receive(Handler handler) { handler_ = std::move(handler); }

  void send(const void* data, std::size_t bytes);
  template <typename U>
  void send_items(const U* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<U>);
    send(data, count * sizeof(U));
  }
  /// Fully synthetic element occupying `wire_bytes` on the simulated wire.
  void send_synthetic(std::size_t wire_bytes);

 private:
  void dispatch(const stream::StreamElement& el) override {
    if (!handler_) return;
    handler_(RawElement{el.data, el.bytes, el.producer, el.data == nullptr});
  }

  Handler handler_;
};

/// Cheap token returned by stream declaration; redeemed inside run() with
/// Context::operator[]. Only valid against the pipeline that issued it.
template <typename Record>
class StreamHandle {
 public:
  StreamHandle() = default;
  [[nodiscard]] bool valid() const noexcept { return index_ >= 0; }

 private:
  friend class Context;
  friend class Pipeline;
  explicit StreamHandle(int index) : index_(index) {}
  int index_ = -1;
};

class RawStreamHandle {
 public:
  RawStreamHandle() = default;
  [[nodiscard]] bool valid() const noexcept { return index_ >= 0; }

 private:
  friend class Context;
  friend class Pipeline;
  explicit RawStreamHandle(int index) : index_(index) {}
  int index_ = -1;
};

/// Token for a declared chain stage; redeemed with Pipeline::stream_between
/// and Context::stage_size / stage_ranks.
class StageHandle {
 public:
  StageHandle() = default;
  [[nodiscard]] bool valid() const noexcept { return index_ >= 0; }

 private:
  friend class Context;
  friend class Pipeline;
  explicit StageHandle(int index) : index_(index) {}
  int index_ = -1;
};

/// What a role function sees: this rank's stage and position, the stages
/// themselves, and the pipeline's bound streams.
class Context {
 public:
  [[nodiscard]] mpi::Rank& self() const noexcept;
  [[nodiscard]] const mpi::Comm& parent() const noexcept;
  [[nodiscard]] int parent_rank() const noexcept;

  /// Index of the stage this rank belongs to, or -1 when unassigned.
  [[nodiscard]] int stage_index() const noexcept;
  /// This rank's position within its stage, or -1 when unassigned.
  [[nodiscard]] int stage_member_index() const noexcept;
  /// Member count of stage `stage`.
  [[nodiscard]] int stage_size(int stage) const;
  [[nodiscard]] int stage_size(StageHandle stage) const;
  /// Parent-comm ranks of stage `stage`, ascending.
  [[nodiscard]] const std::vector<int>& stage_ranks(int stage) const;

  // ---- the split's view: workers are stage 0, helpers stage 1 ----
  /// Index in the worker (helper) group, or -1 when the other role.
  [[nodiscard]] int worker_index() const noexcept;
  [[nodiscard]] int helper_index() const noexcept;
  [[nodiscard]] int worker_count() const noexcept;
  [[nodiscard]] int helper_count() const noexcept;
  /// Balanced block assignment of workers to helpers: the helper index
  /// responsible for `worker` under the Block consumer mapping.
  [[nodiscard]] int helper_of(int worker) const noexcept;
  /// The workers-only communicator (requires with_worker_comm; invalid on
  /// helpers, MPI_UNDEFINED-style).
  [[nodiscard]] const mpi::Comm& worker_comm() const;

  /// The stream behind `h`. Throws std::logic_error on a rank in neither of
  /// the stream's stages: only those ranks hold it.
  template <typename Record>
  [[nodiscard]] TypedStream<Record>& operator[](StreamHandle<Record> h) const {
    return static_cast<TypedStream<Record>&>(slot(h.index_));
  }
  [[nodiscard]] RawStream& operator[](RawStreamHandle h) const {
    return static_cast<RawStream&>(slot(h.index_));
  }

 private:
  friend class Pipeline;
  explicit Context(Pipeline& pipeline) : pipeline_(&pipeline) {}
  [[nodiscard]] int member_index(int stage) const noexcept;
  [[nodiscard]] StreamBase& slot(int index) const;

  Pipeline* pipeline_;
};

/// The pipeline builder/runner. Declare a split or stages, then the streams
/// (same order on every rank), then run(worker_fn, helper_fn) or
/// run_stages(stage_fns).
class Pipeline {
 public:
  [[nodiscard]] static Pipeline over(mpi::Rank& self, const mpi::Comm& parent);

  Pipeline(Pipeline&&) noexcept = default;
  Pipeline& operator=(Pipeline&&) noexcept = default;
  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;
  ~Pipeline() = default;  // slots release their channels in declaration order

  // ---- split declaration (exactly one of the first four) ----
  // Each declares the two-stage chain workers (stage 0) -> helpers
  // (stage 1); a pipeline that declared stage() rejects them.
  /// Every `stride`-th parent rank becomes a helper (GroupPlan::interleaved):
  /// the paper's helper fractions 12.5%, 6.25% and 3.125% are strides 8, 16
  /// and 32.
  Pipeline& with_stride(int stride) &;
  Pipeline&& with_stride(int stride) && { return std::move(with_stride(stride)); }
  /// Adopt a split computed elsewhere (e.g. one shared with result sizing).
  Pipeline& with_plan(const stream::GroupPlan& plan) &;
  Pipeline&& with_plan(const stream::GroupPlan& plan) && {
    return std::move(with_plan(plan));
  }
  /// Explicit helper set; every other parent rank is a worker.
  Pipeline& with_helper_ranks(std::vector<int> helpers) &;
  Pipeline&& with_helper_ranks(std::vector<int> helpers) && {
    return std::move(with_helper_ranks(std::move(helpers)));
  }
  /// Topology-aware split: dedicate the last `helpers_per_node` ranks of
  /// each compute node (in parent-rank order, nodes as the machine's
  /// NetworkConfig::ranks_per_node groups world ranks) to helper duty, so
  /// every worker streams to a helper on its own node — over shared memory,
  /// off the fabric's shared links. Every node keeps at least one worker, so
  /// a node contributing a single rank contributes no helper. Throws when
  /// `helpers_per_node` < 1, or when no node hosts two members of the
  /// parent communicator (no co-location exists).
  Pipeline& with_node_placement(int helpers_per_node = 1) &;
  Pipeline&& with_node_placement(int helpers_per_node = 1) && {
    return std::move(with_node_placement(helpers_per_node));
  }
  /// Also split a workers-only (stage 0) communicator, for in-group
  /// collectives.
  Pipeline& with_worker_comm() &;
  Pipeline&& with_worker_comm() && { return std::move(with_worker_comm()); }
  /// Resilience for every stream of this pipeline: stream epochs of
  /// `checkpoint_interval` elements per flow, bounded replay, and consumer
  /// failover (see README "Resilience"). A stream whose StreamOptions sets
  /// checkpoint_interval explicitly keeps its own value. Throws
  /// std::invalid_argument for 0: resilience without epochs would retain
  /// unboundedly.
  Pipeline& with_resilience(std::uint32_t checkpoint_interval = 1024) &;
  Pipeline&& with_resilience(std::uint32_t checkpoint_interval = 1024) && {
    return std::move(with_resilience(checkpoint_interval));
  }

  /// The split's two stages. Throw std::logic_error before a split is
  /// declared.
  [[nodiscard]] StageHandle worker_stage() const { return split_stage(0); }
  [[nodiscard]] StageHandle helper_stage() const { return split_stage(1); }

  // ---- stream declaration on a split: workers -> helpers ----
  /// A stream of `Record`s, each carrying up to `max_payload_bytes` extra.
  template <typename Record>
  [[nodiscard]] StreamHandle<Record> stream(std::size_t max_payload_bytes = 0,
                                            StreamOptions options = {}) {
    return stream_between<Record>(worker_stage(), helper_stage(),
                                  max_payload_bytes, std::move(options));
  }
  /// A payload-only stream of `element_bytes`-sized elements.
  [[nodiscard]] RawStreamHandle raw_stream(std::size_t element_bytes,
                                           StreamOptions options = {}) {
    return raw_stream_between(worker_stage(), helper_stage(), element_bytes,
                              std::move(options));
  }

  // ---- chained-stage declaration ----
  /// Append a stage to the chain: the given parent-comm ranks form the next
  /// role group. Stages must be pairwise disjoint; every rank declares the
  /// same stages in the same order (the set derives collective channel
  /// roles). Throws std::logic_error after a split.
  StageHandle stage(std::vector<int> parent_ranks);
  /// Same, with membership given as a pure predicate over parent ranks.
  StageHandle stage(const RolePredicate& member);

  /// A typed stream whose producers are exactly stage `from` and whose
  /// consumers are exactly stage `to` — the link that makes an intermediate
  /// stage consumer of one stream and producer of the next.
  template <typename Record>
  [[nodiscard]] StreamHandle<Record> stream_between(StageHandle from,
                                                    StageHandle to,
                                                    std::size_t max_payload_bytes = 0,
                                                    StreamOptions options = {}) {
    return StreamHandle<Record>(add_slot(
        from, to,
        []() -> std::unique_ptr<StreamBase> {
          return std::make_unique<TypedStream<Record>>();
        },
        sizeof(Record) + max_payload_bytes, std::move(options)));
  }
  /// Payload-only variant of stream_between.
  [[nodiscard]] RawStreamHandle raw_stream_between(StageHandle from,
                                                   StageHandle to,
                                                   std::size_t element_bytes,
                                                   StreamOptions options = {});

  using RoleFn = std::function<void(Context&)>;
  /// run_stages({worker_fn, helper_fn}) on a split: `worker_fn` runs on the
  /// workers, `helper_fn` on the helpers.
  void run(const RoleFn& worker_fn, const RoleFn& helper_fn);

  /// Create every declared channel (collective, declaration order), attach
  /// the streams, and run `stage_fns[i]` on the members of stage i (one
  /// function per declared stage; ranks in no stage only participate in the
  /// collective channel creation). Auto-termination propagates stage to
  /// stage: when a stage function returns, that stage's outgoing streams
  /// terminate, unblocking the next stage's operate(). Channels are released
  /// when the Pipeline leaves scope.
  void run_stages(const std::vector<RoleFn>& stage_fns);

 private:
  friend class Context;
  Pipeline(mpi::Rank& self, mpi::Comm parent);

  using StreamFactory = std::unique_ptr<StreamBase> (*)();
  struct Slot {
    std::unique_ptr<StreamBase> stream;  ///< null on ranks in neither stage
    std::size_t element_bytes = 0;
    StreamOptions options;
    int from = -1;  ///< producer stage
    int to = -1;    ///< consumer stage
  };

  /// Declare a stream from stage `from` to stage `to`; `make` builds its
  /// object, called only on the ranks of those two stages.
  int add_slot(StageHandle from, StageHandle to, StreamFactory make,
               std::size_t element_bytes, StreamOptions options);
  void set_split(std::vector<int> helpers);
  [[nodiscard]] StageHandle split_stage(int index) const;
  [[nodiscard]] int stage_of(int parent_rank) const noexcept;
  [[nodiscard]] const mpi::Group& group(int stage) const noexcept {
    return stages_[static_cast<std::size_t>(stage)];
  }

  mpi::Rank* self_;
  mpi::Comm parent_;
  // Ascending parent ranks per stage, interned: every rank of the pipeline
  // shares one member list per stage, and membership and position lookups
  // are O(1). A split is stages 0 (workers) and 1 (helpers).
  std::vector<mpi::Group> stages_;
  bool split_ = false;  ///< stages_ holds a split, not stage() declarations
  bool want_worker_comm_ = false;
  bool ran_ = false;
  std::uint32_t checkpoint_interval_ = 0;  ///< 0 = with_resilience not set
  mpi::Comm worker_comm_{};
  std::vector<Slot> slots_;
};

}  // namespace ds::decouple
