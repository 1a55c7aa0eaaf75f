// Event-driven collective algorithms.
//
// Each nonblocking collective is a per-rank state machine advanced by message
// completion continuations, never by the owning fiber. That models offloaded
// / asynchronous progress: communication proceeds while the fiber computes,
// which the paper's nonblocking baselines (MPI_Iallgatherv, MPI_Ireduce,
// nonblocking halo exchange) depend on for overlap.
//
// Algorithms (matching mainstream MPI implementations, so cost scales with P
// the way the paper's testbed did):
//   barrier      — dissemination, ceil(log2 P) rounds
//   bcast        — binomial tree
//   reduce       — binomial tree (children combined in order)
//   allreduce    — reduce to 0 + bcast (2 log P rounds)
//   allgather(v) — recursive doubling when P is a power of two, else ring
//   alltoallv    — pairwise exchange, P-1 rounds
#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "mpi/machine.hpp"
#include "mpi/rank.hpp"

namespace ds::mpi {

namespace {

[[nodiscard]] int ceil_log2(int n) noexcept {
  int rounds = 0;
  int reach = 1;
  while (reach < n) {
    reach <<= 1;
    ++rounds;
  }
  return rounds;
}

/// Common plumbing for collective state machines.
///
/// Failure-awareness: every expected message names its sender's world rank,
/// so a crashed peer's message is *satisfied by failure* (the receive
/// completes with Status::failed — immediately if the peer is already dead,
/// or from kill_rank's sweep if it dies while posted) and sends toward dead
/// peers complete inert. The round schedule therefore runs to structural
/// completion under any crash pattern — no re-posting, no hang — and the
/// op's outcome reports the failure: Status::failed is set when any of my
/// own exchanges was satisfied by failure, or when any member of the
/// communicator is dead by the time I finish (the check asks the
/// communicator about each dead rank, so the fault-free path is O(1) and
/// the check costs O(dead ranks), not O(members)).
struct CollBase : detail::OpState {
  Machine* m = nullptr;
  Comm comm;
  int me = -1;  // my rank in comm
  int size = 0;
  int tag = 0;
  bool peer_failed = false;       ///< some exchange was satisfied by failure
  bool last_recv_failed = false;  ///< outcome of the latest crecv, for data steps

  void init(Machine& machine, const Comm& c, int my_rank, int coll_tag) {
    m = &machine;
    comm = c;
    me = my_rank;
    size = c.size();
    tag = coll_tag;
    const util::SimTime budget = machine.config().collective_timeout;
    if (budget > 0) {
      // Watchdog (off by default): a collective instance that is neither
      // complete nor excused (its own rank crashed mid-run and the op was
      // parked) after `budget` virtual time aborts the run. The event holds
      // a reference, so the op outlives the check.
      detail::OpRef<detail::OpState> self(this);
      Machine* mach = m;
      const int world = c.world_rank(my_rank);
      const int t = coll_tag;
      machine.engine().schedule_after(budget, [self, mach, world, t] {
        if (!self->complete && !mach->rank_failed(world))
          throw CollectiveTimeout(world, t);
      });
    }
  }

  void csend(int dst, SendBuf data, sim::Callback k) {
    m->post_send(comm.context(), me, comm.world_rank(me), comm.world_rank(dst),
                 tag, data, std::move(k));
  }
  void crecv(int src, RecvBuf out, sim::Callback k) {
    auto r = m->post_recv(comm.context(), comm.world_rank(me), src, tag, out,
                          /*on_complete=*/{}, /*fused_wake=*/false,
                          /*src_world=*/comm.world_rank(src));
    // The wrapper observes the receive's outcome before advancing the state
    // machine. A raw pointer is safe: when it runs as on_complete the op is
    // pinned by complete_op's caller, and the synchronous branch runs under
    // the local reference.
    detail::RecvOp* raw = r.get();
    auto fire = [this, raw, k = std::move(k)]() mutable {
      last_recv_failed = raw->status.failed;
      if (last_recv_failed) peer_failed = true;
      k();
    };
    if (r->complete) {
      fire();
    } else {
      r->on_complete = std::move(fire);
    }
  }
  [[nodiscard]] bool observed_failure() const {
    if (peer_failed) return true;
    for (const int world : m->dead_ranks())
      if (comm.rank_of_world(world) >= 0) return true;
    return false;
  }
  void finish() {
    if (observed_failure()) status.failed = true;
    m->complete_op(*this);
  }
};

// ---------------------------------------------------------------- barrier --
struct IbarrierOp final : CollBase {
  int round = 0;
  int rounds = 0;
  int pending = 0;

  static Request launch(Machine& m, const Comm& c, int me, int tag) {
    auto op = detail::make_heap_op<IbarrierOp>();
    op->init(m, c, me, tag);
    op->rounds = ceil_log2(c.size());
    op->step(op);
    return op;
  }

  void step(const detail::OpRef<IbarrierOp>& self) {
    if (round >= rounds) {
      finish();
      return;
    }
    const int dist = 1 << round;
    ++round;
    const int to = (me + dist) % size;
    const int from = (me - dist % size + size) % size;
    pending = 2;
    auto k = [this, self] {
      if (--pending == 0) step(self);
    };
    csend(to, SendBuf::synthetic(1), k);
    crecv(from, RecvBuf::discard(1), k);
  }
};

// ------------------------------------------------------------------ bcast --
struct IbcastOp final : CollBase {
  int root = 0;
  void* data = nullptr;
  std::size_t bytes = 0;
  int pending = 0;

  [[nodiscard]] int rel(int r) const noexcept { return (r - root + size) % size; }
  [[nodiscard]] int abs(int r) const noexcept { return (r + root) % size; }

  static Request launch(Machine& m, const Comm& c, int me, int root,
                        RecvBuf buf, int tag) {
    auto op = detail::make_heap_op<IbcastOp>();
    op->init(m, c, me, tag);
    op->root = root;
    op->data = buf.ptr;
    op->bytes = buf.bytes;
    const int relrank = op->rel(me);
    if (relrank == 0) {
      op->send_to_children(op);
    } else {
      // Find my parent: clear my lowest set bit.
      int mask = 1;
      while (!(relrank & mask)) mask <<= 1;
      const int parent = op->abs(relrank ^ mask);
      op->crecv(parent, RecvBuf{op->data, op->bytes},
                [op] { op->send_to_children(op); });
    }
    return op;
  }

  void send_to_children(const detail::OpRef<IbcastOp>& self) {
    const int relrank = rel(me);
    // Children: relrank | mask for masks strictly below my lowest set bit
    // (every mask up to the tree reach for the root).
    int lowest = 1;
    while (relrank != 0 && !(relrank & lowest)) lowest <<= 1;
    std::vector<int> children;
    const int limit = (relrank == 0) ? (1 << ceil_log2(size)) : lowest;
    for (int mask = limit >> 1; mask >= 1; mask >>= 1) {
      const int child = relrank | mask;
      if (child != relrank && child < size) children.push_back(child);
    }
    if (children.empty()) {
      finish();
      return;
    }
    pending = static_cast<int>(children.size());
    for (const int child : children) {
      csend(abs(child), SendBuf{data, bytes}, [this, self] {
        if (--pending == 0) finish();
      });
    }
  }
};

// ----------------------------------------------------------------- reduce --
struct IreduceOp final : CollBase {
  int root = 0;
  const void* in = nullptr;
  void* out = nullptr;
  std::size_t bytes = 0;
  ReduceFn fn;
  bool synthetic = true;
  std::vector<std::byte> accum;
  std::vector<std::byte> incoming;
  int mask = 1;

  [[nodiscard]] int rel(int r) const noexcept { return (r - root + size) % size; }
  [[nodiscard]] int abs(int r) const noexcept { return (r + root) % size; }

  static Request launch(Machine& m, const Comm& c, int me, int root, SendBuf in,
                        void* out, ReduceFn fn, int tag) {
    auto op = detail::make_heap_op<IreduceOp>();
    op->init(m, c, me, tag);
    op->root = root;
    op->in = in.ptr;
    op->out = out;
    op->bytes = in.on_wire();
    op->fn = std::move(fn);
    op->synthetic = (in.ptr == nullptr);
    if (!op->synthetic) {
      op->accum.resize(op->bytes);
      std::memcpy(op->accum.data(), in.ptr, op->bytes);
      op->incoming.resize(op->bytes);
    }
    op->step(op);
    return op;
  }

  void step(const detail::OpRef<IreduceOp>& self) {
    const int relrank = rel(me);
    while (mask < size) {
      if (relrank & mask) {
        // My turn to fold upward: single send to parent, then done.
        const int parent = abs(relrank ^ mask);
        csend(parent,
              synthetic ? SendBuf::synthetic(bytes)
                        : SendBuf{accum.data(), bytes},
              [this, self] { finish(); });
        return;
      }
      const int child = relrank | mask;
      mask <<= 1;
      if (child < size) {
        crecv(abs(child),
              synthetic ? RecvBuf::discard(bytes)
                        : RecvBuf{incoming.data(), bytes},
              [this, self] {
                // A child satisfied by failure contributed no data; fold
                // nothing and let the outcome report the failure.
                if (!synthetic && fn && !last_recv_failed)
                  fn(incoming.data(), accum.data(), bytes);
                step(self);
              });
        return;  // resume from the continuation
      }
    }
    // Only the root exits the loop without sending.
    if (!synthetic && out) std::memcpy(out, accum.data(), bytes);
    finish();
  }
};

// ------------------------------------------------------------- allgatherv --
// Recursive doubling (log2 P rounds) when P is a power of two — essential at
// scale, where a ring's P-1 rounds per rank would mean O(P^2) messages — and
// a ring otherwise. Block r starts at r * block (the count-free allgather,
// whose blocks travel through the machine's shared result entry, so its
// rounds carry synthetic payloads and keep no per-member array) or at the
// sum of the counts before it (allgatherv). Recursive doubling only ever
// touches the boundaries of my aligned 2^k-member block and of its end, so
// it keeps those <= 2 log2 P + 2 offsets; the ring visits every block and
// keeps all P + 1.
struct IallgathervOp final : CollBase {
  std::byte* out = nullptr;
  std::size_t block = 0;
  std::vector<std::size_t> displs;  ///< allgatherv ring: size + 1 offsets
  /// allgatherv recursive doubling: (member, offset) of each block boundary
  /// the rounds touch, ascending by member.
  std::vector<std::pair<int, std::size_t>> bounds;
  int round = 0;
  int pending = 0;
  bool power_of_two = false;

  [[nodiscard]] std::size_t offset(int r) const {
    if (!displs.empty()) return displs[static_cast<std::size_t>(r)];
    if (bounds.empty()) return static_cast<std::size_t>(r) * block;
    const auto it = std::lower_bound(
        bounds.begin(), bounds.end(), r,
        [](const auto& bound, int member) { return bound.first < member; });
    assert(it != bounds.end() && it->first == r);
    return it->second;
  }
  [[nodiscard]] std::size_t segment_bytes(int from, int to) const {
    return offset(to) - offset(from);
  }

  /// Record the offsets of every block boundary the doubling rounds touch
  /// (the start and the end of my aligned 2^k-member block, for each k),
  /// in one prefix pass over `counts`.
  void index_bounds(const std::vector<std::size_t>& counts) {
    std::vector<int> members;
    for (int half = 1; half <= size; half <<= 1) {
      const int lo = me & ~(half - 1);
      members.push_back(lo);
      members.push_back(lo + half);
    }
    std::sort(members.begin(), members.end());
    members.erase(std::unique(members.begin(), members.end()), members.end());
    bounds.reserve(members.size());
    std::size_t sum = 0;
    int r = 0;
    for (const int member : members) {
      for (; r < member; ++r) sum += counts[static_cast<std::size_t>(r)];
      bounds.emplace_back(member, sum);
    }
  }

  /// `counts` null: every member contributes `mine.on_wire()` bytes.
  static Request launch(Machine& m, const Comm& c, int me, SendBuf mine,
                        void* out, const std::vector<std::size_t>* counts,
                        int tag) {
    if (counts) {
      if (static_cast<int>(counts->size()) != c.size())
        throw std::invalid_argument("iallgatherv: counts.size() != comm size");
      if (mine.ptr && mine.bytes != (*counts)[static_cast<std::size_t>(me)])
        throw std::invalid_argument("iallgatherv: my block size != counts[me]");
    }
    auto op = detail::make_heap_op<IallgathervOp>();
    op->init(m, c, me, tag);
    op->out = static_cast<std::byte*>(out);
    op->power_of_two = (c.size() & (c.size() - 1)) == 0;
    if (!counts) {
      op->block = mine.on_wire();
    } else if (op->power_of_two) {
      op->index_bounds(*counts);
    } else {
      op->displs.resize(counts->size() + 1, 0);
      std::partial_sum(counts->begin(), counts->end(), op->displs.begin() + 1);
    }
    if (op->out && mine.ptr)
      std::memcpy(op->out + op->offset(me), mine.ptr, mine.bytes);
    op->step(op);
    return op;
  }

  /// Send/receive buffers for the member-contiguous blocks [from, to).
  [[nodiscard]] SendBuf send_span(int from, int to) const {
    const std::size_t bytes = segment_bytes(from, to);
    return out ? SendBuf{out + offset(from), bytes} : SendBuf::synthetic(bytes);
  }
  [[nodiscard]] RecvBuf recv_span(int from, int to) const {
    const std::size_t bytes = segment_bytes(from, to);
    return out ? RecvBuf{out + offset(from), bytes} : RecvBuf::discard(bytes);
  }

  void step(const detail::OpRef<IallgathervOp>& self) {
    if (power_of_two ? (1 << round) >= size : round >= size - 1) {
      finish();
      return;
    }
    pending = 2;
    auto k_done = [this, self] {
      if (--pending == 0) step(self);
    };
    if (power_of_two) {
      // Round k: swap my accumulated 2^k-rank block with partner me^2^k.
      const int k = round++;
      const int half = 1 << k;
      const int partner = me ^ half;
      const int mine_lo = me & ~(half - 1);      // start of my held block
      const int theirs_lo = partner & ~(half - 1);
      csend(partner, send_span(mine_lo, mine_lo + half), k_done);
      crecv(partner, recv_span(theirs_lo, theirs_lo + half), k_done);
      return;
    }
    // Ring: in round k, pass along the block received in round k-1.
    const int k = round++;
    const int send_idx = (me - k + size) % size;
    const int recv_idx = (me - k - 1 + size) % size;
    csend((me + 1) % size, send_span(send_idx, send_idx + 1), k_done);
    crecv((me - 1 + size) % size, recv_span(recv_idx, recv_idx + 1), k_done);
  }
};

// -------------------------------------------------------------- alltoallv --
struct IalltoallvOp final : CollBase {
  const std::byte* send_buf = nullptr;
  std::byte* recv_buf = nullptr;
  std::vector<std::size_t> send_counts, recv_counts;
  std::vector<std::size_t> send_displs, recv_displs;
  int round = 1;
  int pending = 0;

  static Request launch(Machine& m, const Comm& c, int me, const void* send_buf,
                        const std::vector<std::size_t>& send_counts,
                        void* recv_buf,
                        const std::vector<std::size_t>& recv_counts, int tag) {
    if (static_cast<int>(send_counts.size()) != c.size() ||
        static_cast<int>(recv_counts.size()) != c.size())
      throw std::invalid_argument("ialltoallv: counts size != comm size");
    auto op = detail::make_heap_op<IalltoallvOp>();
    op->init(m, c, me, tag);
    op->send_buf = static_cast<const std::byte*>(send_buf);
    op->recv_buf = static_cast<std::byte*>(recv_buf);
    op->send_counts = send_counts;
    op->recv_counts = recv_counts;
    op->send_displs.resize(send_counts.size() + 1, 0);
    op->recv_displs.resize(recv_counts.size() + 1, 0);
    std::partial_sum(send_counts.begin(), send_counts.end(),
                     op->send_displs.begin() + 1);
    std::partial_sum(recv_counts.begin(), recv_counts.end(),
                     op->recv_displs.begin() + 1);
    const auto self_idx = static_cast<std::size_t>(me);
    if (op->send_buf && op->recv_buf) {
      std::memcpy(op->recv_buf + op->recv_displs[self_idx],
                  op->send_buf + op->send_displs[self_idx],
                  std::min(send_counts[self_idx], recv_counts[self_idx]));
    }
    op->step(op);
    return op;
  }

  void step(const detail::OpRef<IalltoallvOp>& self) {
    int skipped = 0;
    while (round < size) {
      const int k = round++;
      const auto dst = static_cast<std::size_t>((me + k) % size);
      const auto src = static_cast<std::size_t>((me - k + size) % size);
      // Empty rounds are priced, not exchanged: a dense pairwise alltoall
      // still walks every peer (one zero-byte message each way), but
      // simulating O(P^2) empty messages would sink the event engine. We
      // charge the per-round wire time in bulk and move on.
      if (send_counts[dst] == 0 && recv_counts[src] == 0) {
        ++skipped;
        continue;
      }
      auto launch = [this, self, dst, src] {
        pending = 2;
        auto k_done = [this, self] {
          if (--pending == 0) step(self);
        };
        csend(static_cast<int>(dst),
              send_buf ? SendBuf{send_buf + send_displs[dst], send_counts[dst]}
                       : SendBuf::synthetic(send_counts[dst]),
              k_done);
        crecv(static_cast<int>(src),
              recv_buf ? RecvBuf{recv_buf + recv_displs[src], recv_counts[src]}
                       : RecvBuf::discard(recv_counts[src]),
              k_done);
      };
      if (skipped > 0) {
        m->engine().schedule_after(skipped * empty_round_cost(), launch);
      } else {
        launch();
      }
      return;
    }
    if (skipped > 0) {
      m->engine().schedule_after(skipped * empty_round_cost(),
                                 [this, self] { finish(); });
    } else {
      finish();
    }
  }

  [[nodiscard]] util::SimTime empty_round_cost() const {
    // One zero-byte message each way: wire latency, injection, and the
    // per-message software overheads on both ends.
    const auto& net = m->fabric().config();
    return net.latency + net.injection_gap + net.send_overhead +
           net.recv_overhead;
  }
};

// -------------------------------------------------------------- composite --
struct CompositeOp final : detail::OpState {
  /// Runs two stages in sequence. The second stage may start only after
  /// the first completes, so both arrive as launch thunks, not as launched
  /// requests.
  static Request launch(Machine& m, std::function<Request()> first,
                        std::function<Request()> second) {
    auto op = detail::make_heap_op<CompositeOp>();
    // Stages are stored before their continuations are attached so the
    // finish path can read both outcomes (a stage may complete
    // synchronously, e.g. under satisfied-by-failure fast paths).
    op->stage1 = first();
    auto chain = [&m, op, second] {
      op->stage2 = second();
      auto finish = [&m, op] {
        if (op->stage1->status.failed || op->stage2->status.failed)
          op->status.failed = true;
        m.complete_op(*op);
      };
      if (op->stage2->complete) {
        finish();
      } else {
        op->stage2->on_complete = finish;
      }
    };
    if (op->stage1->complete) {
      chain();
    } else {
      op->stage1->on_complete = chain;
    }
    return op;
  }

  Request stage1, stage2;
};

}  // namespace

// ---- Rank entry points -----------------------------------------------

Request Rank::ibarrier(const Comm& comm) {
  const int me = rank_in(comm);
  if (me < 0) throw std::logic_error("ibarrier: not a member");
  return IbarrierOp::launch(*machine_, comm, me, next_coll_tag(comm));
}

namespace {
/// Blocking wrappers surface the collective's outcome (Status::failed on a
/// crash observed mid-collective) instead of hanging or swallowing it.
[[nodiscard]] Status wait_outcome(Rank& self, const Request& req) {
  self.wait(req);
  return req->status;
}

/// A member's hold on its allgather result entry, released when the call
/// returns or while a crash unwinds the member's fiber.
class ExchangeHold {
 public:
  ExchangeHold(Machine& machine, std::uint64_t key,
               detail::Exchange& entry) noexcept
      : machine_(machine), key_(key), entry_(entry) {}
  ExchangeHold(const ExchangeHold&) = delete;
  ExchangeHold& operator=(const ExchangeHold&) = delete;
  ~ExchangeHold() { machine_.release_exchange(key_, entry_); }

 private:
  Machine& machine_;
  std::uint64_t key_;
  detail::Exchange& entry_;  ///< kept alive by the caller's shared_ptr
};
}  // namespace

Status Rank::barrier(const Comm& comm) {
  const sim::SpanScope span(*process_, obs::SpanKind::Collective, "barrier");
  return wait_outcome(*this, ibarrier(comm));
}

Request Rank::ibcast(const Comm& comm, int root, RecvBuf data) {
  const int me = rank_in(comm);
  if (me < 0) throw std::logic_error("ibcast: not a member");
  return IbcastOp::launch(*machine_, comm, me, root, data, next_coll_tag(comm));
}

Status Rank::bcast(const Comm& comm, int root, RecvBuf data) {
  const sim::SpanScope span(*process_, obs::SpanKind::Collective, "bcast");
  return wait_outcome(*this, ibcast(comm, root, data));
}

Request Rank::ireduce(const Comm& comm, int root, SendBuf in, void* out,
                      ReduceFn fn) {
  const int me = rank_in(comm);
  if (me < 0) throw std::logic_error("ireduce: not a member");
  return IreduceOp::launch(*machine_, comm, me, root, in, out, std::move(fn),
                           next_coll_tag(comm));
}

Status Rank::reduce(const Comm& comm, int root, SendBuf in, void* out,
                    ReduceFn fn) {
  const sim::SpanScope span(*process_, obs::SpanKind::Collective, "reduce");
  return wait_outcome(*this, ireduce(comm, root, in, out, std::move(fn)));
}

Request Rank::iallreduce(const Comm& comm, SendBuf in, void* out, ReduceFn fn) {
  const int me = rank_in(comm);
  if (me < 0) throw std::logic_error("iallreduce: not a member");
  const int tag_reduce = next_coll_tag(comm);
  const int tag_bcast = next_coll_tag(comm);
  Machine& m = *machine_;
  const std::size_t bytes = in.on_wire();
  return CompositeOp::launch(
      m,
      [&m, comm, me, in, out, fn = std::move(fn), tag_reduce] {
        return IreduceOp::launch(m, comm, me, /*root=*/0, in, out, fn,
                                 tag_reduce);
      },
      [&m, comm, me, out, bytes, tag_bcast] {
        return IbcastOp::launch(m, comm, me, /*root=*/0, RecvBuf{out, bytes},
                                tag_bcast);
      });
}

Status Rank::allreduce(const Comm& comm, SendBuf in, void* out, ReduceFn fn) {
  const sim::SpanScope span(*process_, obs::SpanKind::Collective, "allreduce");
  return wait_outcome(*this, iallreduce(comm, in, out, std::move(fn)));
}

Request Rank::iallgatherv(const Comm& comm, SendBuf mine, void* out,
                          const std::vector<std::size_t>& counts) {
  const int me = rank_in(comm);
  if (me < 0) throw std::logic_error("iallgatherv: not a member");
  process_->advance(static_cast<util::SimTime>(
      machine_->config().network.coll_post_ns_per_peer * comm.size()));
  return IallgathervOp::launch(*machine_, comm, me, mine, out, &counts,
                               next_coll_tag(comm));
}

Status Rank::allgatherv(const Comm& comm, SendBuf mine, void* out,
                        const std::vector<std::size_t>& counts) {
  const sim::SpanScope span(*process_, obs::SpanKind::Collective, "allgatherv");
  return wait_outcome(*this, iallgatherv(comm, mine, out, counts));
}

AllgatherResult Rank::allgather(const Comm& comm, SendBuf mine) {
  const sim::SpanScope span(*process_, obs::SpanKind::Collective, "allgather");
  const int me = rank_in(comm);
  if (me < 0) throw std::logic_error("allgather: not a member");
  process_->advance(static_cast<util::SimTime>(
      machine_->config().network.coll_post_ns_per_peer * comm.size()));
  const int tag = next_coll_tag(comm);
  // Every member of this call derives the same key from the communicator
  // and the collective's tag (a salt apart from write_all's claim key).
  const std::uint64_t key = Machine::derive_context(
      comm.context(), 0xA11A7E5ull, static_cast<std::uint32_t>(tag));
  const std::shared_ptr<detail::Exchange> entry =
      machine_->exchange(key, comm.size(), me, mine);
  const ExchangeHold hold(*machine_, key, *entry);
  // The blocks travel through the entry; the wire carries same-size
  // synthetic payloads, so the cost is that of the real exchange.
  const Status status = wait_outcome(
      *this, IallgathervOp::launch(*machine_, comm, me,
                                   SendBuf::synthetic(mine.on_wire()),
                                   /*out=*/nullptr, /*counts=*/nullptr, tag));
  return AllgatherResult{status, {entry, &entry->data}, entry};
}

Request Rank::ialltoallv(const Comm& comm, const void* send_buf,
                         const std::vector<std::size_t>& send_counts,
                         void* recv_buf,
                         const std::vector<std::size_t>& recv_counts) {
  const int me = rank_in(comm);
  if (me < 0) throw std::logic_error("ialltoallv: not a member");
  process_->advance(static_cast<util::SimTime>(
      machine_->config().network.coll_post_ns_per_peer * comm.size()));
  const int tag_sync = next_coll_tag(comm);
  const int tag_data = next_coll_tag(comm);
  // A dense pairwise alltoall cannot complete until every member has
  // entered: stragglers stall their partners round by round. We model that
  // global coupling as an embedded dissemination barrier ahead of the data
  // rounds; nonblocking callers hide it under their overlapped compute,
  // blocking callers pay it in full — the gap Fig. 6 measures.
  Machine& m = *machine_;
  return CompositeOp::launch(
      m,
      [&m, comm, me, tag_sync] {
        return IbarrierOp::launch(m, comm, me, tag_sync);
      },
      [&m, comm, me, send_buf, &send_counts, recv_buf, &recv_counts, tag_data] {
        return IalltoallvOp::launch(m, comm, me, send_buf, send_counts,
                                    recv_buf, recv_counts, tag_data);
      });
}

Status Rank::alltoallv(const Comm& comm, const void* send_buf,
                       const std::vector<std::size_t>& send_counts,
                       void* recv_buf,
                       const std::vector<std::size_t>& recv_counts) {
  const sim::SpanScope span(*process_, obs::SpanKind::Collective, "alltoallv");
  return wait_outcome(
      *this, ialltoallv(comm, send_buf, send_counts, recv_buf, recv_counts));
}

}  // namespace ds::mpi
