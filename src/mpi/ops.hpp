// Internal operation states for the message-passing runtime.
//
// Every asynchronous operation (send, receive, nonblocking collective) is a
// state object shared between the issuing fiber, the matching engine, and
// scheduled events. Completion both wakes a waiting fiber (for Rank::wait)
// and fires an event-context continuation (for collective state machines) —
// the two mechanisms never conflict.
//
// Hot-path design (the simulate-one-element path must not allocate):
//  * SendOp/RecvOp are intrusively reference-counted and come from per-type
//    freelist pools owned by the Machine. Handles (OpRef / Request), queue
//    slots, and scheduled events each hold a reference; when the last drops,
//    the op returns to its pool's freelist with its generation counter
//    bumped — a completed op is reused across the run, never reallocated,
//    and a still-held handle pins its op so it cannot be resurrected into a
//    live request underneath the holder.
//  * Small payloads are stored in a buffer inside the pooled op
//    (kInlineBytes, sized for the traffic the apps send: nearly every real
//    payload is at most 64 bytes); a larger payload borrows a buffer of its
//    power-of-two size class from the machine's PayloadBuffers and returns
//    it when the op recycles, so even rendezvous-class reuse is
//    allocation-free in steady state — however long a receiver holds a
//    message. A payload many sends carry alike (a count-matrix announce)
//    is shared instead: each op references one read-only buffer.
//  * Matching state is bucketed per context id (communicator / stream), so
//    concurrent streams on one rank never scan each other's traffic. The
//    queues of a bucket link their ops through the ops themselves
//    (OpState::next), so a queue owns no storage and a push never
//    allocates.
//  * Collective state machines remain individually heap-allocated (pool ==
//    nullptr => delete on last release): they are per-collective, not
//    per-element.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "mpi/types.hpp"
#include "sim/callback.hpp"

namespace ds::mpi {

namespace detail {

class OpPoolBase;

enum class OpKind : std::uint8_t { Send, Recv, Coll };

struct OpState {
  OpKind kind = OpKind::Coll;
  bool complete = false;
  std::uint32_t refs = 0;       ///< handles + queue slots + scheduled events
  std::uint32_t gen = 0;        ///< bumped each time a pooled op is recycled
  int waiter_pid = -1;          ///< fiber to wake on completion
  sim::Callback on_complete;    ///< event-context continuation
  Status status{};              ///< filled in for receive-like ops
  OpPoolBase* pool = nullptr;   ///< home pool; null = heap-owned (delete)
  /// Intrusive link: the pool's freelist while recycled, a mailbox queue
  /// while queued. A queued op holds a reference, so it is never both.
  OpState* next = nullptr;

  OpState() = default;
  explicit OpState(OpKind k) noexcept : kind(k) {}
  virtual ~OpState() = default;

  /// Recycle counter of the underlying slot: a live handle observes a
  /// stable generation for as long as it is held.
  [[nodiscard]] std::uint32_t generation() const noexcept { return gen; }

 protected:
  void reset_base() noexcept {
    complete = false;
    waiter_pid = -1;
    on_complete = nullptr;
    status = Status{};
  }
};

class OpPoolBase {
 public:
  virtual void release(OpState* op) noexcept = 0;

 protected:
  ~OpPoolBase() = default;
};

inline void unref_op(OpState* op) noexcept {
  if (op != nullptr && --op->refs == 0) {
    if (op->pool != nullptr)
      op->pool->release(op);
    else
      delete op;
  }
}

/// Intrusive reference to an op state. Copies pin the op (it cannot return
/// to its pool while any reference is live); the last release recycles
/// pooled ops and deletes heap-owned ones.
template <typename T>
class OpRef {
 public:
  OpRef() noexcept = default;
  OpRef(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)
  explicit OpRef(T* op) noexcept : op_(op) {
    if (op_ != nullptr) ++op_->refs;
  }
  OpRef(const OpRef& other) noexcept : op_(other.op_) {
    if (op_ != nullptr) ++op_->refs;
  }
  OpRef(OpRef&& other) noexcept : op_(other.op_) { other.op_ = nullptr; }
  template <typename U,
            std::enable_if_t<std::is_convertible_v<U*, T*>, int> = 0>
  OpRef(const OpRef<U>& other) noexcept  // NOLINT(google-explicit-constructor)
      : op_(other.get()) {
    if (op_ != nullptr) ++op_->refs;
  }
  template <typename U,
            std::enable_if_t<std::is_convertible_v<U*, T*>, int> = 0>
  OpRef(OpRef<U>&& other) noexcept  // NOLINT(google-explicit-constructor)
      : op_(other.detach()) {}

  OpRef& operator=(const OpRef& other) noexcept {
    OpRef(other).swap(*this);
    return *this;
  }
  OpRef& operator=(OpRef&& other) noexcept {
    OpRef(std::move(other)).swap(*this);
    return *this;
  }
  OpRef& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  ~OpRef() { unref_op(op_); }

  void reset() noexcept {
    unref_op(op_);
    op_ = nullptr;
  }
  void swap(OpRef& other) noexcept { std::swap(op_, other.op_); }

  [[nodiscard]] T* get() const noexcept { return op_; }
  [[nodiscard]] T* operator->() const noexcept { return op_; }
  [[nodiscard]] T& operator*() const noexcept { return *op_; }
  [[nodiscard]] explicit operator bool() const noexcept {
    return op_ != nullptr;
  }

  /// Hand the raw pointer (and its reference) to the caller.
  [[nodiscard]] T* detach() noexcept {
    T* op = op_;
    op_ = nullptr;
    return op;
  }
  /// Take over a reference the caller holds (the inverse of detach).
  [[nodiscard]] static OpRef adopt(T* op) noexcept {
    OpRef ref;
    ref.op_ = op;
    return ref;
  }

 private:
  template <typename U>
  friend class OpRef;

  T* op_ = nullptr;
};

/// Heap-owned op (collective state machines): reference-counted, deleted on
/// the last release.
template <typename T, typename... Args>
[[nodiscard]] OpRef<T> make_heap_op(Args&&... args) {
  return OpRef<T>(new T(std::forward<Args>(args)...));
}

enum class SendMode { Eager, Rendezvous };

/// Spare payload buffers of one machine, by power-of-two size class. A send
/// op borrows one for a payload too large for its inline buffer and gives
/// it back when the op recycles. A payload takes the smallest spare that
/// fits, so the buffers track the large payloads alive at once, each at the
/// largest class it has needed. (Kept per pool slot instead, a buffer grows
/// for every slot that ever carries a larger payload, and receivers that
/// hold messages while they drain them spread large payloads over more
/// slots: late growth the zero-alloc gate's two-length delta reads as a
/// per-element allocation.)
class PayloadBuffers {
 public:
  /// Smallest class: twice SendOp's inline payload budget, the least a
  /// payload that overflows the op can need.
  static constexpr std::size_t kMinBytes = 128;

  /// An empty buffer with room for `n` bytes.
  [[nodiscard]] std::vector<std::byte> take(std::size_t n) {
    const unsigned k = class_of(n);
    for (unsigned c = k; c < kClasses; ++c) {
      if (spare_[c].empty()) continue;
      std::vector<std::byte> buf = std::move(spare_[c].back());
      spare_[c].pop_back();
      return buf;
    }
    // Nothing fits: the new buffer replaces the largest smaller spare, so
    // payloads that grow (recursive-doubling rounds) leave no trail of
    // outgrown buffers behind.
    for (unsigned c = k; c-- > 0;) {
      if (spare_[c].empty()) continue;
      spare_[c].pop_back();
      --created_[c];
      break;
    }
    // Make room for the new buffer's return now: give() runs while an op
    // recycles and must not allocate.
    if (++created_[k] > spare_[k].capacity())
      spare_[k].reserve(2 * created_[k]);
    std::vector<std::byte> buf;
    buf.reserve(std::size_t{1} << k);
    return buf;
  }
  void give(std::vector<std::byte>&& buf) noexcept {
    buf.clear();
    spare_[class_of(buf.capacity())].push_back(std::move(buf));
  }

 private:
  static constexpr unsigned kClasses = 64;
  [[nodiscard]] static unsigned class_of(std::size_t n) noexcept {
    return std::max(static_cast<unsigned>(std::bit_width(kMinBytes - 1)),
                    static_cast<unsigned>(std::bit_width(n - 1)));
  }
  std::array<std::vector<std::vector<std::byte>>, kClasses> spare_;
  std::array<std::size_t, kClasses> created_{};  ///< buffers alive per class
};

struct SendOp final : OpState {
  /// Inline payload budget: a payload up to this size is copied into the
  /// pooled op itself; anything larger goes to `overflow_`, a buffer
  /// borrowed from `buffers` until the op recycles. Sized for the traffic:
  /// at 2,048 ranks (seed 42) the decoupled wordcount sends 92,015 real
  /// payloads, all of 9-16 bytes, and the decoupled PIC I/O (a writer
  /// crash at a third) 112,504 of at most 64 bytes, 127 of 513-2,048 bytes
  /// and 126 of 30,712; all but one of its 253 larger payloads are
  /// count-matrix announces, which share one buffer (share_payload). A
  /// larger budget costs every pool slot its bytes for the few payloads
  /// that would use them.
  static constexpr std::size_t kInlineBytes = 64;

  SendOp() noexcept : OpState(OpKind::Send) {}

  std::uint64_t context = 0;
  int src_comm_rank = 0;  ///< sender's rank in the communicator
  int src_world = 0;
  int dst_world = 0;
  int tag = 0;
  std::size_t bytes = 0;  ///< wire size
  SendMode mode = SendMode::Eager;
  std::size_t payload_bytes = 0;  ///< 0 for synthetic messages
  PayloadBuffers* buffers = nullptr;  ///< the machine's; set at each post

  /// Copy `n` bytes of `data` into the op (buffered-send semantics).
  void store_payload(const void* data, std::size_t n) {
    payload_bytes = n;
    if (n == 0) return;
    std::byte* copy = inline_payload_.data();
    if (n > kInlineBytes) {
      overflow_ = buffers->take(n);
      overflow_.resize(n);
      copy = overflow_.data();
    }
    std::memcpy(copy, data, n);
    payload_ = copy;
  }
  /// Reference `bytes` instead of copying them: `owner` keeps them alive
  /// and unchanged until the op recycles, so many sends of one buffer hold
  /// one copy between them.
  void share_payload(std::shared_ptr<const void> owner,
                     std::span<const std::byte> bytes) noexcept {
    shared_ = std::move(owner);
    payload_ = bytes.data();
    payload_bytes = bytes.size();
  }

  /// True when the message carries host bytes (copied or shared), even
  /// none of them: a shared empty payload is still a real one.
  [[nodiscard]] bool has_payload() const noexcept {
    return payload_bytes > 0 || shared_ != nullptr;
  }
  [[nodiscard]] const std::byte* payload() const noexcept { return payload_; }
  /// The owner of a shared payload (null when the payload was copied or
  /// the message is synthetic): a receiver that keeps it keeps the bytes.
  [[nodiscard]] const std::shared_ptr<const void>& shared_payload()
      const noexcept {
    return shared_;
  }

  void reset_for_reuse() noexcept {
    reset_base();
    payload_bytes = 0;
    payload_ = nullptr;
    shared_.reset();
    // Moving the buffer out leaves overflow_ empty and unallocated.
    if (overflow_.capacity() > 0) buffers->give(std::move(overflow_));
  }

 private:
  const std::byte* payload_ = nullptr;  ///< the bytes, wherever they live
  std::array<std::byte, kInlineBytes> inline_payload_;
  std::vector<std::byte> overflow_;
  std::shared_ptr<const void> shared_;
};

struct RecvOp final : OpState {
  RecvOp() noexcept : OpState(OpKind::Recv) {}

  std::uint64_t context = 0;
  int dst_world = 0;
  int src_filter = kAnySource;  ///< comm rank or kAnySource
  int tag_filter = kAnyTag;
  /// World rank of the one sender that can match this receive, or
  /// kAnySource when unknown. Failure-aware paths (collectives, p2p,
  /// aggregated IO) set it so a crash of that sender completes the receive
  /// with Status::failed (satisfied-by-failure) instead of leaving it
  /// posted forever; wildcard/stream receives leave it unset and keep the
  /// pre-existing semantics.
  int src_world = kAnySource;
  void* out = nullptr;
  std::size_t capacity = 0;
  /// Borrowing receive (RecvBuf::borrowed): completion stores the matched
  /// message in `message` instead of copying its payload to `out`. The
  /// receiver moves it out and reads the payload in place; the send op
  /// returns to its pool when the receiver lets go of it.
  bool borrow = false;
  OpRef<SendOp> message;
  bool overhead_charged = false;  ///< o_r charged at observation, once
  /// Fused wake/advance (streams): when completion finds a blocked waiter,
  /// wake it at completion + o_r with the overhead pre-charged — one
  /// scheduled resume instead of a wake plus a separate o_r advance (which
  /// costs its own event and context-switch pair per message).
  bool fused_wake = false;

  void reset_for_reuse() noexcept {
    reset_base();
    src_filter = kAnySource;
    tag_filter = kAnyTag;
    src_world = kAnySource;
    out = nullptr;
    capacity = 0;
    borrow = false;
    message.reset();
    overhead_charged = false;
    fused_wake = false;
  }
};

struct OpPoolStats {
  std::uint64_t created = 0;   ///< op states ever allocated
  std::uint64_t acquired = 0;  ///< acquisitions (created + recycled)
  std::uint64_t released = 0;  ///< slots returned to the freelist
  [[nodiscard]] std::uint64_t reused() const noexcept {
    return acquired - created;
  }
  /// Slots currently held by live handles/queues/events. Fault-injection
  /// tests assert this returns to 0 after a crash-and-drain run: killing a
  /// rank must recycle every op it pinned, never leak pool slots.
  [[nodiscard]] std::uint64_t outstanding() const noexcept {
    return acquired - released;
  }
};

/// Freelist pool of op states. Slots are allocated once, handed out as
/// OpRefs, and return to the freelist (generation bumped) when the last
/// reference drops; steady-state traffic runs entirely on recycled slots.
template <typename T>
class OpPool final : public OpPoolBase {
 public:
  [[nodiscard]] OpRef<T> acquire() {
    ++stats_.acquired;
    if (free_head_ != nullptr) {
      T* op = static_cast<T*>(free_head_);
      free_head_ = op->next;
      op->next = nullptr;
      return OpRef<T>(op);
    }
    ++stats_.created;
    slots_.push_back(std::make_unique<T>());
    T* op = slots_.back().get();
    op->pool = this;
    return OpRef<T>(op);
  }

  void release(OpState* op) noexcept override {
    ++stats_.released;
    ++op->gen;
    // Resetting may drop continuations that hold references to other ops,
    // recursively releasing them; each inner release completes before the
    // outer freelist push, so the list stays consistent.
    static_cast<T*>(op)->reset_for_reuse();
    op->next = free_head_;
    free_head_ = op;
  }

  [[nodiscard]] const OpPoolStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t slot_count() const noexcept {
    return slots_.size();
  }

 private:
  std::vector<std::unique_ptr<T>> slots_;
  OpState* free_head_ = nullptr;
  OpPoolStats stats_;
};

/// FIFO of queued ops, linked through OpState::next in push order. The
/// queue owns no storage: it holds one reference per queued op and two
/// pointers, so a push never allocates and a context that sits idle costs
/// nothing beyond its bucket. Matching scans from the oldest op and unlinks
/// the first hit wherever it sits (a filtered match behind older traffic of
/// the same context) in O(1).
template <typename T>
class OpQueue {
 public:
  OpQueue() noexcept = default;
  OpQueue(const OpQueue&) = delete;
  OpQueue& operator=(const OpQueue&) = delete;
  ~OpQueue() {
    while (!empty()) (void)pop_front();
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == nullptr; }

  void push_back(OpRef<T> op) noexcept {
    T* raw = op.detach();  // the queue keeps the reference
    raw->next = nullptr;
    if (tail_ != nullptr)
      tail_->next = raw;
    else
      head_ = raw;
    tail_ = raw;
  }

  /// Unlink the oldest queued op; the queue must not be empty.
  [[nodiscard]] OpRef<T> pop_front() noexcept { return unlink(nullptr, head_); }

  /// Oldest queued op satisfying `pred`, left in place; null if none does.
  template <typename Pred>
  [[nodiscard]] const T* find(Pred pred) const {
    for (const T* op = head_; op != nullptr; op = next_of(op))
      if (pred(*op)) return op;
    return nullptr;
  }

  /// Unlink the oldest queued op satisfying `pred`; null if none does.
  template <typename Pred>
  [[nodiscard]] OpRef<T> take_first(Pred pred) {
    T* prev = nullptr;
    for (T* op = head_; op != nullptr; prev = op, op = next_of(op))
      if (pred(*op)) return unlink(prev, op);
    return nullptr;
  }

  /// Unlink every queued op satisfying `pred` and append them to `out`,
  /// newest first.
  template <typename Pred>
  void take_all(Pred pred, std::vector<OpRef<T>>& out) {
    const std::size_t first = out.size();
    T* prev = nullptr;
    for (T* op = head_; op != nullptr;) {
      T* following = next_of(op);
      if (pred(*op))
        out.push_back(unlink(prev, op));
      else
        prev = op;
      op = following;
    }
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  }

 private:
  [[nodiscard]] static T* next_of(const T* op) noexcept {
    return static_cast<T*>(op->next);
  }
  /// Unlink `op`, which follows `prev` (null: `op` is the head).
  [[nodiscard]] OpRef<T> unlink(T* prev, T* op) noexcept {
    T* following = next_of(op);
    if (prev != nullptr)
      prev->next = following;
    else
      head_ = following;
    if (tail_ == op) tail_ = prev;
    op->next = nullptr;
    return OpRef<T>::adopt(op);
  }

  T* head_ = nullptr;
  T* tail_ = nullptr;
};

/// Matching filters against an arrived message (context equality is the
/// bucket key and is asserted by the full `matches` overload).
[[nodiscard]] inline bool matches_filters(int src_filter, int tag_filter,
                                          const SendOp& s) noexcept {
  return (src_filter == kAnySource || src_filter == s.src_comm_rank) &&
         (tag_filter == kAnyTag || tag_filter == s.tag);
}

[[nodiscard]] inline bool matches(const RecvOp& r, const SendOp& s) noexcept {
  return r.context == s.context && matches_filters(r.src_filter, r.tag_filter, s);
}

/// Unexpected arrivals and posted receives of one matching context, both in
/// arrival/post order, per MPI matching semantics. A single FIFO per context
/// preserves per-(context, source) arrival order, and wildcard receives see
/// the earliest arrival of the context first. Both queues are intrusive, so
/// a bucket is its 40 bytes whatever traffic it has seen.
struct ContextQueues {
  OpQueue<SendOp> unexpected;
  OpQueue<RecvOp> posted;
  bool touched = true;  ///< traffic since the last sweep

  [[nodiscard]] bool drained() const noexcept {
    return unexpected.empty() && posted.empty();
  }
};

/// Per-world-rank matching state, bucketed by context id: many concurrent
/// streams (each with its own derived context) on one rank match in O(1)
/// amortized instead of scanning a shared flat queue.
///
/// Buckets are created on first use and reclaimed lazily: every
/// kSweepInterval accesses, buckets that sat drained AND untouched for the
/// whole interval are erased. Hot buckets (which pass through empty between
/// messages constantly) carry the touched mark and are never churned, so
/// the steady state stays allocation-free while dead contexts (short-lived
/// communicators/streams) cannot accumulate without bound. Queueing an op
/// never allocates: it links the op into its bucket.
struct Mailbox {
  static constexpr std::uint32_t kSweepInterval = 1024;

  std::unordered_map<std::uint64_t, ContextQueues> contexts;
  bool probe_waiting = false;  ///< wake the owner's fiber on the next arrival
  std::uint32_t ops_since_sweep = 0;

  /// Bucket for `context`, marked live for this sweep interval.
  [[nodiscard]] ContextQueues& touch(std::uint64_t context) {
    ContextQueues& q = contexts[context];
    q.touched = true;
    if (++ops_since_sweep >= kSweepInterval) sweep();
    return q;  // erase() of other nodes never invalidates this reference
  }

  void sweep() {
    ops_since_sweep = 0;
    for (auto it = contexts.begin(); it != contexts.end();) {
      if (!it->second.touched && it->second.drained()) {
        it = contexts.erase(it);
      } else {
        it->second.touched = false;
        ++it;
      }
    }
  }
};

}  // namespace detail

/// Public handle to any asynchronous operation. Holding a Request pins the
/// op: pooled op states recycle only after every handle, queue slot, and
/// scheduled event has released its reference.
using Request = detail::OpRef<detail::OpState>;

}  // namespace ds::mpi
