#include "mpi/machine.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "mpi/rank.hpp"
#include "util/rng.hpp"

namespace ds::mpi {

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      engine_(config_.engine, config_.observability.trace),
      fabric_(config_.network, config_.world_size),
      filesystem_(config_.filesystem),
      world_(/*context=*/1, Group::world(config_.world_size)),
      mailboxes_(static_cast<std::size_t>(config_.world_size)),
      dead_(static_cast<std::size_t>(config_.world_size), 0),
      incarnation_(static_cast<std::size_t>(config_.world_size), 0),
      pid_(static_cast<std::size_t>(config_.world_size), -1) {
  if (config_.observability.metrics) {
    metrics_ = std::make_unique<obs::Metrics>();
    // Pull-style machine state: snapshotted by collect()/to_json(), never
    // touched on the per-message path.
    metrics_->add_collector([this](obs::Metrics& m) {
      m.gauge("engine.events_executed")
          .set(static_cast<double>(engine_.events_executed()));
      m.gauge("engine.virtual_time_s").set(util::to_seconds(engine_.now()));
      const PoolStats pools = pool_stats();
      m.gauge("pool.send.created").set(static_cast<double>(pools.send.created));
      m.gauge("pool.send.reused").set(static_cast<double>(pools.send.reused()));
      m.gauge("pool.send.outstanding")
          .set(static_cast<double>(pools.send.outstanding()));
      m.gauge("pool.recv.created").set(static_cast<double>(pools.recv.created));
      m.gauge("pool.recv.reused").set(static_cast<double>(pools.recv.reused()));
      m.gauge("pool.recv.outstanding")
          .set(static_cast<double>(pools.recv.outstanding()));
      fabric_.sample_metrics(m);
    });
  }
}

Machine::~Machine() = default;

util::SimTime Machine::run(std::function<void(Rank&)> program) {
  program_ = std::move(program);
  for (int r = 0; r < config_.world_size; ++r) spawn_rank(r);
  install_faults();
  try {
    engine_.run();
  } catch (...) {
    // An aborted run (deadlock, collective timeout, an escaping exception)
    // must not discard the suspended fibers with everything their stacks
    // own. Killing every fiber makes each throw RankFailure out of its
    // blocking call, and its RAII cleanup skip protocol traffic, exactly as
    // after a crash; the engine then unwinds them. (A crashed incarnation's
    // fiber is killed already.)
    for (int r = 0; r < config_.world_size; ++r)
      engine_.kill(pid_[static_cast<std::size_t>(r)],
                   std::make_exception_ptr(RankFailure(r)));
    engine_.unwind_processes();
    throw;
  }
  return engine_.now();
}

void Machine::spawn_rank(int r) {
  pid_[static_cast<std::size_t>(r)] = engine_.spawn([this, r](sim::Process& p) {
    // Every incarnation of a world rank records on the same trace track,
    // even though restart_rank fibers get fresh engine pids.
    p.set_trace_rank(r);
    Rank rank(*this, p, r);
    try {
      program_(rank);
    } catch (const RankFailure&) {
      // Fail-stop: the killed fiber unwinds here and simply ends; the rest
      // of the simulation keeps running.
    }
  });
}

void Machine::install_faults() {
  config_.faults.validate(config_.world_size);
  for (const sim::FaultEvent& ev : config_.faults.events)
    engine_.schedule(ev.at, [this, ev] { apply_fault(ev); });
}

void Machine::apply_fault(const sim::FaultEvent& event) {
  switch (event.kind) {
    case sim::FaultEvent::Kind::RankCrash:
      kill_rank(event.rank);
      break;
    case sim::FaultEvent::Kind::RankRestart:
      restart_rank(event.rank);
      break;
  }
}

void Machine::kill_rank(int world_rank) {
  auto& dead = dead_.at(static_cast<std::size_t>(world_rank));
  if (dead != 0) return;
  dead = 1;
  dead_ranks_.push_back(world_rank);
  ++membership_epoch_;
  const int pid = pid_[static_cast<std::size_t>(world_rank)];
  engine_.kill(pid, std::make_exception_ptr(RankFailure(world_rank)));
  if (auto* t = engine_.trace()) {
    // Fail-stop cuts the rank's activity off mid-span; close what is open so
    // the track stays balanced, then mark the crash as an instant event.
    t->instant(world_rank, engine_.now(), "crash");
    t->close_all(world_rank, engine_.now());
  }
  if (metrics_) metrics_->counter("resilience.crashes", world_rank).add();

  // Drain the dead rank's mailbox. Unexpected arrivals are dropped — taking
  // them releases the queue's references, so the pooled send ops recycle
  // (completing any rendezvous sender still waiting on a match). Posted
  // receives complete with Status::failed, ending the dead fiber's wait on
  // them so it unwinds.
  auto& box = mailboxes_.at(static_cast<std::size_t>(world_rank));
  for (auto& [context, q] : box.contexts) {
    (void)context;
    while (!q.unexpected.empty()) {
      const auto msg = q.unexpected.pop_front();
      if (!msg->complete) complete_op(*msg);
    }
    while (!q.posted.empty()) {
      const auto recv = q.posted.pop_front();
      recv->status = Status{};
      recv->status.failed = true;
      complete_op(*recv);
    }
  }
  // The dead fiber may be parked in a stream wait for an arrival that will
  // never come now; wake it so it unwinds.
  if (box.probe_waiting) {
    box.probe_waiting = false;
    engine_.wake(pid);
  }

  // Satisfied-by-failure on the survivors: a posted receive that names the
  // dead rank as its only possible sender can never match now. Complete each
  // with Status::failed so failure-aware callers (collectives, p2p waits,
  // aggregated IO) observe the crash instead of deadlocking. Collect before
  // completing: completions run continuations that post new receives into
  // the very queues being scanned (and can create new context buckets).
  // Each queue's orphans complete newest first, the order whose event
  // sequence numbers the virtual-time baselines were recorded with.
  std::vector<detail::OpRef<detail::RecvOp>> orphaned;
  const auto names_dead = [world_rank](const detail::RecvOp& recv) {
    return recv.src_world == world_rank;
  };
  for (int r = 0; r < config_.world_size; ++r) {
    if (r == world_rank || dead_[static_cast<std::size_t>(r)] != 0) continue;
    for (auto& [context, q] : mailboxes_[static_cast<std::size_t>(r)].contexts) {
      (void)context;
      q.posted.take_all(names_dead, orphaned);
    }
  }
  for (const auto& recv : orphaned) {
    recv->status = Status{};
    recv->status.failed = true;
    complete_op(*recv);
  }

  // Blocked protocol loops (credit, term and agreement waits) must
  // re-evaluate routing toward the dead rank.
  wake_live_ranks();
}

void Machine::restart_rank(int world_rank) {
  auto& dead = dead_.at(static_cast<std::size_t>(world_rank));
  if (dead == 0) return;
  dead = 0;
  std::erase(dead_ranks_, world_rank);
  ++incarnation_[static_cast<std::size_t>(world_rank)];
  ++membership_epoch_;
  if (auto* t = engine_.trace())
    t->instant(world_rank, engine_.now(), "rejoin");
  if (metrics_) metrics_->counter("resilience.rejoins", world_rank).add();
  spawn_rank(world_rank);
  // Rejoin is a membership change exactly like a crash: blocked protocol
  // loops must re-evaluate routing so flows the adopters took over can be
  // rebalanced back to the respawned rank. (The new fiber, not yet started,
  // keeps the token for its first suspend.)
  wake_live_ranks();
}

void Machine::wake_live_ranks() {
  for (std::size_t r = 0; r < dead_.size(); ++r)
    if (dead_[r] == 0) engine_.wake(pid_[r]);
}

std::shared_ptr<resilience::Agreement> Machine::agreement(std::uint64_t key,
                                                          int size) {
  auto& slot = agreements_[key];
  if (!slot) slot = std::make_shared<resilience::Agreement>(size);
  return slot;
}

void Machine::release_agreement(std::uint64_t key) { agreements_.erase(key); }

std::shared_ptr<detail::Exchange> Machine::exchange(std::uint64_t key,
                                                    int size, int member,
                                                    SendBuf mine) {
  const std::size_t block = mine.on_wire();
  auto& slot = exchanges_[key];
  if (!slot) {
    slot = std::make_shared<detail::Exchange>();
    slot->block = block;
    slot->data.resize(static_cast<std::size_t>(size) * block);
  } else if (slot->block != block) {
    throw std::logic_error(
        "allgather: members contribute blocks of different sizes");
  }
  if (mine.ptr != nullptr && mine.bytes > 0)
    std::memcpy(slot->data.data() + static_cast<std::size_t>(member) * block,
                mine.ptr, mine.bytes);
  // Only a late depositor under a crash finds a product built: it left
  // this block out, so the next reader derives it again.
  slot->product.reset();
  ++slot->readers_left;
  return slot;
}

void Machine::release_exchange(std::uint64_t key,
                               detail::Exchange& entry) noexcept {
  if (--entry.readers_left > 0) return;
  // Under a crash, members that finished early can release an entry before
  // a late member deposits; the latter then starts a fresh entry under the
  // same key, which only its own readers may erase.
  const auto it = exchanges_.find(key);
  if (it != exchanges_.end() && it->second.get() == &entry)
    exchanges_.erase(it);
}

std::uint64_t Machine::derive_context(std::uint64_t parent, std::uint64_t salt,
                                      std::uint64_t color) noexcept {
  // SplitMix-style avalanche over the triple; deterministic everywhere.
  std::uint64_t state = parent * 0x9E3779B97F4A7C15ull + salt;
  (void)util::splitmix64(state);
  state ^= color * 0xC2B2AE3D27D4EB4Full;
  return util::splitmix64(state) | 1ull;  // never 0 (0 = invalid)
}

void Machine::complete_op(detail::OpState& op) {
  op.complete = true;
  if (op.on_complete) {
    auto continuation = std::move(op.on_complete);
    op.on_complete = nullptr;
    continuation();
  }
  if (op.waiter_pid < 0) return;
  if (op.kind == detail::OpKind::Recv) {
    auto& recv = static_cast<detail::RecvOp&>(op);
    if (recv.fused_wake && !recv.overhead_charged) {
      // Fused wake/advance: resume the blocked waiter at now + o_r with the
      // receive overhead pre-charged, instead of waking it now and letting
      // Rank::wait run a separate o_r advance (one more event plus a
      // context-switch pair per message).
      recv.overhead_charged = true;
      engine_.wake_at(op.waiter_pid,
                      engine_.now() + config_.network.recv_overhead);
      return;
    }
  }
  engine_.wake(op.waiter_pid);
}

detail::OpRef<detail::SendOp> Machine::post_send(std::uint64_t context,
                                                 int src_comm_rank,
                                                 int src_world, int dst_world,
                                                 int tag, SendBuf data,
                                                 sim::Callback on_complete) {
  auto op = send_pool_.acquire();
  op->buffers = &payload_buffers_;
  if (data.ptr && data.bytes > 0) {
    // Buffered-send semantics: the payload is copied out immediately (into
    // the op's inline buffer for small sizes), so the caller may reuse its
    // buffer as soon as post_send returns.
    op->store_payload(data.ptr, data.bytes);
  }
  launch(op, context, src_comm_rank, src_world, dst_world, tag,
         data.on_wire(), std::move(on_complete));
  return op;
}

detail::OpRef<detail::SendOp> Machine::post_send(std::uint64_t context,
                                                 int src_comm_rank,
                                                 int src_world, int dst_world,
                                                 int tag, SharedBuf data,
                                                 sim::Callback on_complete) {
  auto op = send_pool_.acquire();
  op->buffers = &payload_buffers_;
  op->share_payload(std::move(data.owner), data.bytes);
  launch(op, context, src_comm_rank, src_world, dst_world, tag,
         data.wire_bytes, std::move(on_complete));
  return op;
}

void Machine::launch(const detail::OpRef<detail::SendOp>& op,
                     std::uint64_t context, int src_comm_rank, int src_world,
                     int dst_world, int tag, std::size_t wire_bytes,
                     sim::Callback on_complete) {
  op->context = context;
  op->src_comm_rank = src_comm_rank;
  op->src_world = src_world;
  op->dst_world = dst_world;
  op->tag = tag;
  op->bytes = wire_bytes;
  op->on_complete = std::move(on_complete);
  op->mode = op->bytes > fabric_.config().eager_threshold
                 ? detail::SendMode::Rendezvous
                 : detail::SendMode::Eager;

  // Fault injection: a crashed sender emits nothing (its fiber is unwinding
  // and must not leave traffic behind); the op completes inert.
  if (rank_failed(src_world)) {
    complete_op(*op);
    return;
  }

  const util::SimTime now = engine_.now();
  if (op->mode == detail::SendMode::Eager) {
    // Payload moves immediately; envelope+payload as one fabric message.
    const auto sched = fabric_.schedule_message(src_world, dst_world,
                                                kControlBytes + op->bytes, now);
    engine_.schedule(sched.deliver_at, [this, op] { deposit(op); });
    engine_.schedule(sched.sender_free_at, [this, op] { complete_op(*op); });
  } else {
    // Rendezvous: only the envelope moves now; the payload transfer is set
    // up in start_transfer once a matching receive exists.
    const auto sched =
        fabric_.schedule_message(src_world, dst_world, kControlBytes, now);
    engine_.schedule(sched.deliver_at, [this, op] { deposit(op); });
  }
}

detail::OpRef<detail::RecvOp> Machine::post_recv(std::uint64_t context,
                                                 int dst_world, int src_filter,
                                                 int tag_filter, RecvBuf out,
                                                 sim::Callback on_complete,
                                                 bool fused_wake,
                                                 int src_world) {
  auto op = recv_pool_.acquire();
  op->context = context;
  op->dst_world = dst_world;
  op->src_filter = src_filter;
  op->tag_filter = tag_filter;
  op->out = out.ptr;
  op->capacity = out.bytes;
  op->borrow = out.borrow;
  op->on_complete = std::move(on_complete);
  op->fused_wake = fused_wake;
  op->src_world = src_world;

  auto& box = mailboxes_.at(static_cast<std::size_t>(dst_world));
  auto& q = box.touch(context);
  // The unexpected queue is scanned first even when the named sender is
  // already dead: a message that outran the crash still matches.
  const auto send = q.unexpected.take_first(
      [&op](const detail::SendOp& msg) { return detail::matches(*op, msg); });
  if (send) {
    start_transfer(op, send);
    return op;
  }
  if (rank_failed(dst_world) || (src_world >= 0 && rank_failed(src_world))) {
    // Satisfied-by-failure: either the only sender that could match is dead,
    // or the receiver itself is — arrivals toward it are dropped, so the
    // receive could never complete. Failing it immediately lets a crashed
    // rank's collective state machine run to structural completion (event
    // context, no fiber) instead of parking pool slots in a dead mailbox.
    op->status = Status{};
    op->status.failed = true;
    complete_op(*op);
    return op;
  }
  q.posted.push_back(op);
  return op;
}

void Machine::deposit(const detail::OpRef<detail::SendOp>& msg) {
  // Fault injection: arrivals at a crashed rank are dropped, and so are
  // arrivals *from* a rank that crashed while the message was in flight —
  // fail-stop cuts traffic off at the crash instant, matching the repair
  // protocols (a dead producer's undurable in-flight frames are excluded)
  // and the satisfied-by-failure receives (which have already completed
  // with Status::failed and must not be shadowed by a late arrival that
  // would then sit in the unexpected queue forever, leaking its pool slot).
  // Completing the op here keeps rendezvous senders (whose completion
  // normally waits for a matching receive) from blocking forever.
  if (rank_failed(msg->dst_world) || rank_failed(msg->src_world)) {
    if (!msg->complete) complete_op(*msg);
    return;
  }
  auto& box = mailboxes_.at(static_cast<std::size_t>(msg->dst_world));
  auto& q = box.touch(msg->context);
  const auto recv = q.posted.take_first([&msg](const detail::RecvOp& posted) {
    return detail::matches(posted, *msg);
  });
  if (recv) {
    start_transfer(recv, msg);
    return;
  }
  q.unexpected.push_back(msg);
  if (box.probe_waiting) {
    box.probe_waiting = false;
    engine_.wake(pid_[static_cast<std::size_t>(msg->dst_world)]);
  }
}

void Machine::start_transfer(const detail::OpRef<detail::RecvOp>& recv,
                             const detail::OpRef<detail::SendOp>& send) {
  if (send->mode == detail::SendMode::Eager) {
    finish_delivery(recv, send);  // payload already arrived with the envelope
    return;
  }
  // Rendezvous: clear-to-send control back to the sender, then the payload
  // crosses the fabric; both endpoints complete on their own schedule.
  const util::SimTime now = engine_.now();
  const auto cts = fabric_.schedule_message(send->dst_world, send->src_world,
                                            kControlBytes, now);
  const auto payload = fabric_.schedule_message(send->src_world, send->dst_world,
                                                send->bytes, cts.deliver_at);
  engine_.schedule(payload.sender_free_at, [this, send] { complete_op(*send); });
  engine_.schedule(payload.deliver_at,
                   [this, recv, send] { finish_delivery(recv, send); });
}

void Machine::finish_delivery(const detail::OpRef<detail::RecvOp>& recv,
                              const detail::OpRef<detail::SendOp>& send) {
  if (recv->borrow) {
    recv->message = send;  // read in place; no copy, no capacity limit
  } else if (recv->out && send->payload_bytes > 0) {
    std::memcpy(recv->out, send->payload(),
                std::min(recv->capacity, send->payload_bytes));
  }
  recv->status = Status{send->src_comm_rank, send->tag, send->bytes,
                        send->bytes > 0 && !send->has_payload()};
  if (send->mode == detail::SendMode::Rendezvous) {
    // The sender-side completion event fires independently; nothing to do.
  }
  complete_op(*recv);
}

bool Machine::match_probe(std::uint64_t context, int dst_world, int src_filter,
                          int tag_filter, Status* out) {
  const auto& box = mailboxes_.at(static_cast<std::size_t>(dst_world));
  const auto it = box.contexts.find(context);
  if (it == box.contexts.end()) return false;
  const detail::SendOp* msg =
      it->second.unexpected.find([=](const detail::SendOp& s) {
        return detail::matches_filters(src_filter, tag_filter, s);
      });
  if (msg == nullptr) return false;
  if (out) *out = Status{msg->src_comm_rank, msg->tag, msg->bytes};
  return true;
}

void Machine::add_probe_waiter(int dst_world) {
  mailboxes_.at(static_cast<std::size_t>(dst_world)).probe_waiting = true;
}

}  // namespace ds::mpi
