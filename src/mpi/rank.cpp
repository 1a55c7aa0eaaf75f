#include "mpi/rank.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

namespace ds::mpi {

namespace {
[[nodiscard]] int require_member(const Comm& comm, int world_rank,
                                 const char* who) {
  const int r = comm.rank_of_world(world_rank);
  if (r < 0)
    throw std::logic_error(std::string(who) + ": calling rank is not in the communicator");
  return r;
}

/// Span kind for a blocked wait on `req`: receives show up as recv-blocked
/// time, everything else (sends, rendezvous completions) as send-blocked.
[[nodiscard]] obs::SpanKind blocked_kind(const Request& req) noexcept {
  return req->kind == detail::OpKind::Recv ? obs::SpanKind::RecvBlocked
                                           : obs::SpanKind::SendBlocked;
}
}  // namespace

Request Rank::isend(const Comm& comm, int dst, int tag, SendBuf data) {
  const int me = require_member(comm, world_rank_, "isend");
  if (tag < kMinUserTag) throw std::invalid_argument("isend: user tags must be >= 0");
  process_->advance(machine_->config().network.send_overhead);
  return machine_->post_send(comm.context(), me, world_rank_,
                             comm.world_rank(dst), tag, data);
}

Request Rank::irecv(const Comm& comm, int src, int tag, RecvBuf out) {
  (void)require_member(comm, world_rank_, "irecv");
  if (tag != kAnyTag && tag < kMinUserTag)
    throw std::invalid_argument("irecv: user tags must be >= 0 or kAnyTag");
  // Deliberately not failure-aware (src_world stays kAnySource): a posted
  // p2p receive toward a crashed peer remains posted and can match the
  // peer's restarted incarnation — restart-transparent point-to-point is
  // part of the rejoin contract. Collectives, agree, and aggregated IO opt
  // into satisfied-by-failure instead, because a restarted incarnation
  // re-enters those protocols from the beginning.
  return machine_->post_recv(comm.context(), world_rank_, src, tag, out);
}

void Rank::send(const Comm& comm, int dst, int tag, SendBuf data) {
  wait(isend(comm, dst, tag, data));
}

Status Rank::recv(const Comm& comm, int src, int tag, RecvBuf out) {
  const Request req = irecv(comm, src, tag, out);
  wait(req);
  return req->status;
}

Status Rank::sendrecv(const Comm& comm, int dst, int send_tag, SendBuf data,
                      int src, int recv_tag, RecvBuf out) {
  const Request r = irecv(comm, src, recv_tag, out);
  const Request s = isend(comm, dst, send_tag, data);
  wait(s);
  wait(r);
  return r->status;
}

void Rank::wait(const Request& req) {
  if (!req) throw std::invalid_argument("wait: null request");
  if (!req->complete) {
    // Span only over actual blocking: an already-complete request costs one
    // branch, and traces show genuine blocked time rather than wait() calls.
    const sim::SpanScope span(
        *process_, blocked_kind(req),
        req->kind == detail::OpKind::Recv ? "recv-wait" : "send-wait");
    while (!req->complete) {
      req->waiter_pid = process_->id();
      process_->set_state_note("blocked in wait()");
      process_->suspend();
    }
  }
  req->waiter_pid = -1;
  process_->set_state_note({});
  charge_recv_overhead(req);
}

void Rank::wait_all(std::span<const Request> reqs) {
  for (const Request& r : reqs) wait(r);
}

namespace {
/// Freeze the agreement iff every group member has either deposited or is
/// dead in the machine's failure record. Idempotent; the first observer
/// snapshots value, dead set and survivor group, and wakes everyone still
/// blocked.
bool try_freeze(Machine& machine, resilience::Agreement& a, const Comm& comm) {
  if (a.frozen) return true;
  const std::vector<int>& members = comm.group().members();
  for (std::size_t r = 0; r < members.size(); ++r) {
    if (!a.deposited[r] && !machine.rank_failed(members[r])) return false;
  }
  a.frozen = true;
  std::vector<int> dead;  // group ranks
  for (std::size_t r = 0; r < members.size(); ++r) {
    if (a.deposited[r]) a.value |= a.contribution[r];
    if (machine.rank_failed(members[r])) {
      dead.push_back(static_cast<int>(r));
      a.failed.push_back(members[r]);
    }
  }
  a.survivors = dead.empty() ? comm.group() : comm.group().exclude(dead);
  for (const int pid : a.waiters) machine.engine().wake(pid);
  a.waiters.clear();
  return true;
}
}  // namespace

AgreeResult Rank::agree(const Comm& comm, std::uint64_t contribution) {
  const sim::SpanScope span(*process_, obs::SpanKind::Agreement, "agree");
  const int me = require_member(comm, world_rank_, "agree");
  // All participants of the same call derive the same ledger key from the
  // communicator and the per-context agreement sequence (same ordering
  // contract as collectives). A restarted incarnation restarts its sequence
  // at 0, which is consistent as long as it re-enters the protocol from the
  // beginning — the same contract attach-based rejoin already follows.
  const std::uint64_t seq = agree_seq_[comm.context()]++;
  const std::uint64_t key =
      Machine::derive_context(comm.context(), 0xA64EE0ull, seq);
  auto ledger = machine_->agreement(key, comm.size());
  const auto idx = static_cast<std::size_t>(me);
  if (!ledger->deposited[idx]) {
    ledger->deposited[idx] = 1;
    ledger->contribution[idx] = contribution;
    ++ledger->readers_left;
    // This deposit may complete the freeze condition for blocked peers.
    for (const int pid : ledger->waiters) machine_->engine().wake(pid);
    ledger->waiters.clear();
  }
  // The agreement's wire cost: log-P failure-aware synchronization rounds.
  // Its outcome is irrelevant (the ledger is the source of truth); what
  // matters is that it never hangs and prices the exchange.
  wait(ibarrier(comm));
  // A crash of a member that has not deposited may complete the freeze
  // condition; kill_rank wakes every live rank to re-check it.
  while (!ledger->frozen && !try_freeze(*machine_, *ledger, comm)) {
    ledger->waiters.push_back(process_->id());
    process_->set_state_note("blocked in agree()");
    process_->suspend();
  }
  process_->set_state_note({});
  AgreeResult out{ledger->value, ledger->survivors, ledger->failed};
  // A failure-detecting agreement is a membership event worth a marker on
  // the timeline, next to the crash/rejoin instants it reacts to.
  if (!out.failed.empty()) process_->trace_instant("agreement");
  // Drop the ledger once the last live depositor has read the frozen
  // result. (A depositor that crashes post-freeze without reading leaves
  // the entry behind — bounded by such crashes, negligible.)
  if (--ledger->readers_left == 0) machine_->release_agreement(key);
  return out;
}

int Rank::next_coll_tag(const Comm& comm) {
  const std::uint64_t seq = coll_seq_[comm.context()]++;
  // Negative tags are reserved for the runtime; user tags are >= 0.
  return -2 - static_cast<int>(seq % 1'000'000'000ull);
}

void Rank::charge_recv_overhead(const Request& req) {
  if (req->kind != detail::OpKind::Recv) return;
  auto* recv = static_cast<detail::RecvOp*>(req.get());
  if (!recv->overhead_charged) {
    recv->overhead_charged = true;
    process_->advance(machine_->config().network.recv_overhead);
  }
}

Comm Rank::split(const Comm& comm, int color, int key) {
  (void)require_member(comm, world_rank_, "split");
  const int size = comm.size();

  // Allgather (color, key) pairs — the same wire traffic MPI_Comm_split
  // pays. Every member reads the one shared copy.
  const std::array<std::int32_t, 2> mine = {color, key};
  const AllgatherResult all =
      allgather(comm, SendBuf::of(mine.data(), mine.size()));

  const std::uint64_t epoch = split_seq_[comm.context()]++;
  if (color < 0) return Comm{};  // MPI_UNDEFINED: not a member of any result

  // Members of my color, ordered by (key, old rank); stable sort keeps old
  // rank order among equal keys, matching MPI_Comm_split.
  std::vector<std::pair<std::int32_t, int>> picked;  // (key, old comm rank)
  for (int r = 0; r < size; ++r) {
    if (all.at<std::int32_t>(static_cast<std::size_t>(2 * r)) == color)
      picked.emplace_back(
          all.at<std::int32_t>(static_cast<std::size_t>(2 * r + 1)), r);
  }
  std::stable_sort(picked.begin(), picked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  std::vector<int> world_ranks;
  world_ranks.reserve(picked.size());
  for (const auto& [k, old_rank] : picked)
    world_ranks.push_back(comm.world_rank(old_rank));

  const std::uint64_t ctx = Machine::derive_context(
      comm.context(), 0x5B17'0000ull + epoch,
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(color)));
  return Comm(ctx, Group(std::move(world_ranks)));
}

}  // namespace ds::mpi
