// Per-rank facade: the API simulated application code programs against.
//
// A Rank is handed to the program body of every simulated process (fiber).
// Point-to-point calls charge CPU overheads to the calling fiber and go
// through the Machine's matching engine; collectives are event-driven state
// machines (see collectives.cpp) so their communication overlaps with the
// fiber's compute — the property the paper's nonblocking baselines rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <typeinfo>
#include <vector>

#include "mpi/comm.hpp"
#include "mpi/machine.hpp"
#include "mpi/ops.hpp"
#include "mpi/types.hpp"
#include "sim/engine.hpp"

namespace ds::mpi {

/// Outcome of Rank::agree: the agreed value plus the consistent failure
/// view every participant observes. All survivors of one agree() call
/// return the exact same triple (the ledger freezes it exactly once), which
/// is what lets them rebuild a shrunken membership without further
/// coordination.
///
/// `survivors` is built at most once per agreement: on a clean agreement it
/// is the communicator's own group; when members died, the rank that
/// freezes the ledger builds the survivor group once. Every reader copies a
/// pointer, so no rank holds a P-entry list of its own.
struct AgreeResult {
  std::uint64_t value = 0;  ///< OR over every deposited contribution
  Group survivors;          ///< members alive at the freeze, in comm order
  std::vector<int> failed;  ///< world ranks dead at the freeze
  [[nodiscard]] bool clean() const noexcept { return failed.empty(); }
};

/// Outcome of Rank::allgather: the exchange's status and a read-only view
/// of the gathered blocks, member r's at offset r * block. Every member of
/// one call holds the same buffer; copying the result copies a pointer.
struct AllgatherResult {
  Status status;
  std::shared_ptr<const std::vector<std::byte>> blocks;
  /// The call's shared entry, which owns `blocks` and the derived product.
  std::shared_ptr<detail::Exchange> entry;

  /// Element `i` (< blocks->size() / sizeof(T)) of the blocks read as one
  /// array of T: member r's block of k elements holds [r * k, (r + 1) * k).
  template <typename T>
  [[nodiscard]] T at(std::size_t i) const noexcept {
    T value;
    std::memcpy(&value, blocks->data() + i * sizeof(T), sizeof(T));
    return value;
  }

  /// A value derived from the blocks once per call, not once per member:
  /// the first member that asks stores `make(*this)` in the entry, and
  /// every member of the call reads that one object. `make` must be a pure
  /// function of the blocks, and every member must ask for the same T. A
  /// maker that throws stores nothing, so every member throws alike.
  template <typename T, typename Make>
  [[nodiscard]] std::shared_ptr<const T> product(Make&& make) const {
    if (!entry->product) {
      entry->product = std::make_shared<const T>(make(*this));
      entry->product_type = &typeid(T);
    } else if (*entry->product_type != typeid(T)) {
      throw std::logic_error("allgather: members derive different products");
    }
    return std::static_pointer_cast<const T>(entry->product);
  }
};

class Rank {
 public:
  Rank(Machine& machine, sim::Process& process, int world_rank)
      : machine_(&machine), process_(&process), world_rank_(world_rank) {}

  // ---- identity & machine access ----
  [[nodiscard]] int world_rank() const noexcept { return world_rank_; }
  [[nodiscard]] int world_size() const noexcept { return machine_->world_size(); }
  [[nodiscard]] const Comm& world() const noexcept { return machine_->world(); }
  [[nodiscard]] sim::Process& process() noexcept { return *process_; }
  [[nodiscard]] Machine& machine() noexcept { return *machine_; }
  [[nodiscard]] util::SimTime now() const noexcept { return machine_->engine().now(); }
  /// This rank's number in `comm`, or -1 if not a member.
  [[nodiscard]] int rank_in(const Comm& comm) const noexcept {
    return comm.rank_of_world(world_rank_);
  }

  /// Busy the rank for `nominal` virtual time, noise-perturbed and traced.
  void compute(util::SimTime nominal, const char* label = "comp") {
    process_->compute(nominal, label);
  }

  /// True once this incarnation's fiber has been killed: fault injection
  /// crashed the rank, or the run aborted. It stays true after the rank
  /// restarts, which is a new fiber. RAII cleanup that runs while a killed
  /// fiber unwinds (channel release, stream termination) checks this and
  /// backs off instead of starting new communication.
  [[nodiscard]] bool failed() const noexcept { return process_->killed(); }
  /// Fiber (re)starts of this rank: 0 for the original incarnation.
  [[nodiscard]] int incarnation() const noexcept {
    return machine_->incarnation(world_rank_);
  }

  // ---- point-to-point ----
  /// Start a send; completes when the payload (eager) or handshake+payload
  /// (rendezvous) has left this rank. Charges sender overhead o_s now.
  Request isend(const Comm& comm, int dst, int tag, SendBuf data);
  /// Start a receive from `src` (or kAnySource) with `tag` (or kAnyTag).
  Request irecv(const Comm& comm, int src, int tag, RecvBuf out);

  void send(const Comm& comm, int dst, int tag, SendBuf data);
  Status recv(const Comm& comm, int src, int tag, RecvBuf out);
  /// Combined send+recv, deadlock-free regardless of peer order.
  Status sendrecv(const Comm& comm, int dst, int send_tag, SendBuf data,
                  int src, int recv_tag, RecvBuf out);

  /// Block until `req` completes. Charges receiver overhead o_r exactly once
  /// for receive requests.
  void wait(const Request& req);
  void wait_all(std::span<const Request> reqs);

  // ---- collectives (all members of `comm` must call, in the same order) ----
  //
  // All collectives are failure-aware: a peer crash never hangs them.
  // Expected messages from a rank that crashes are satisfied by failure,
  // the round schedule runs to structural completion, and the outcome
  // (blocking return value / Request's status) carries `failed = true` on
  // every member that observed the crash. Outcomes may differ across ranks
  // when the crash races the last rounds (ULFM semantics); survivors that
  // must act consistently settle the view with agree() first. Data results
  // of a failed collective are undefined.
  Status barrier(const Comm& comm);
  Request ibarrier(const Comm& comm);

  /// Broadcast `data` (significant at root) to all members.
  Status bcast(const Comm& comm, int root, RecvBuf data);
  Request ibcast(const Comm& comm, int root, RecvBuf data);

  /// Reduce elementwise into `out` at root. `fn` combines byte buffers; null
  /// `in.ptr` or `out` runs the collective with synthetic payloads.
  Status reduce(const Comm& comm, int root, SendBuf in, void* out, ReduceFn fn);
  Request ireduce(const Comm& comm, int root, SendBuf in, void* out, ReduceFn fn);

  Status allreduce(const Comm& comm, SendBuf in, void* out, ReduceFn fn);
  Request iallreduce(const Comm& comm, SendBuf in, void* out, ReduceFn fn);

  /// Gather one equal-size block from every member (MPI_Allgather): each
  /// contributes `mine.on_wire()` bytes, and the result holds member r's
  /// block at offset r * block. The members of one call share a single
  /// read-only result buffer held by the machine, so no rank keeps a
  /// P-entry receive array: each member deposits its block there at launch,
  /// the machine drops its entry once every depositor has read it (the
  /// buffer lives on while any result holds it), and a block never
  /// deposited (its member crashed first) reads as zeros. The wire cost is
  /// allgatherv's with uniform counts: the same rounds, messages, bytes and
  /// posting charge, run with synthetic payloads. A failed outcome leaves
  /// the data undefined, as for every collective.
  AllgatherResult allgather(const Comm& comm, SendBuf mine);

  /// Gather variable-size blocks from all ranks into `out` on every rank.
  /// `counts[r]` is rank r's block size in bytes; block r lands at offset
  /// sum(counts[0..r)). `mine.bytes` must equal `counts[my rank]`. The
  /// nonblocking form reads `counts` once, at launch, so `counts` need not
  /// outlive the call. On a power-of-two communicator it keeps only the
  /// <= 2 log2 P + 2 block offsets its recursive-doubling rounds touch, so
  /// no rank holds a per-member array while the exchange runs; the ring
  /// used on other sizes keeps one P + 1 displacement array.
  Status allgatherv(const Comm& comm, SendBuf mine, void* out,
                    const std::vector<std::size_t>& counts);
  Request iallgatherv(const Comm& comm, SendBuf mine, void* out,
                      const std::vector<std::size_t>& counts);

  /// Variable all-to-all; `send_counts[r]`/`recv_counts[r]` are byte counts
  /// to/from rank r, packed contiguously in rank order. As with
  /// MPI_Ialltoallv, the count arrays must stay valid until completion.
  Status alltoallv(const Comm& comm, const void* send_buf,
                   const std::vector<std::size_t>& send_counts, void* recv_buf,
                   const std::vector<std::size_t>& recv_counts);
  Request ialltoallv(const Comm& comm, const void* send_buf,
                     const std::vector<std::size_t>& send_counts, void* recv_buf,
                     const std::vector<std::size_t>& recv_counts);

  /// Fault-tolerant agreement (ULFM-shrink style). Every live member of
  /// `comm` deposits `contribution` into a shared ledger and runs log-P
  /// failure-aware synchronization rounds; the call returns once every
  /// member has either deposited or crashed. The result — OR over all
  /// deposited contributions plus the dead/survivor view at the freeze —
  /// is identical on every participant, tolerating crashes at any point
  /// mid-agreement (each deposit or crash strictly advances the freeze
  /// condition). Like collectives, concurrent agreements on one
  /// communicator must be issued in the same order on every member.
  AgreeResult agree(const Comm& comm, std::uint64_t contribution = 0);

  /// Partition `comm` by color; ranks order by (key, old rank). Negative
  /// color returns an invalid Comm (MPI_UNDEFINED semantics).
  Comm split(const Comm& comm, int color, int key);

 private:
  friend class File;
  /// Reserved tag for the next collective on `comm` (same value on every
  /// member because collectives are called in communicator order).
  int next_coll_tag(const Comm& comm);
  void charge_recv_overhead(const Request& req);

  Machine* machine_;
  sim::Process* process_;
  int world_rank_;
  std::map<std::uint64_t, std::uint64_t> coll_seq_;
  std::map<std::uint64_t, std::uint64_t> split_seq_;
  std::map<std::uint64_t, std::uint64_t> agree_seq_;
};

}  // namespace ds::mpi
