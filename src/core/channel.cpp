#include "core/channel.hpp"

#include <stdexcept>
#include <vector>

namespace ds::stream {

Channel Channel::create(mpi::Rank& self, const mpi::Comm& parent,
                        bool is_producer, bool is_consumer,
                        ChannelConfig config) {
  if (is_producer && is_consumer)
    throw std::invalid_argument(
        "Channel::create: producer and consumer groups must be disjoint");
  if (self.rank_in(parent) < 0)
    throw std::logic_error("Channel::create: caller not in parent communicator");

  const std::int8_t my_role = is_producer ? 1 : (is_consumer ? 2 : 0);
  mpi::Comm active = parent;
  for (int attempt = 0;; ++attempt) {
    // Everyone learns everyone's role — the same traffic MPI_Comm_split
    // pays — from the allgather's one shared copy. A member that crashed
    // before depositing reads as "not a member".
    const mpi::AllgatherResult roles =
        self.allgather(active, mpi::SendBuf::of(&my_role, 1));
    // Commit the exchange through agreement: collective outcomes may
    // diverge when a crash races the last rounds (one rank completes clean
    // before the crash instant, its neighbor observes the failure), and a
    // member that built the channel while the rest retried would leave the
    // group split forever. The agreement ORs every member's local outcome
    // and settles one failure view, so either everyone builds from this
    // exchange or everyone retries.
    const mpi::AgreeResult verdict =
        self.agree(active, roles.status.failed ? 1u : 0u);
    if (verdict.value == 0 && verdict.clean()) {
      // The first member to get here derives the members for the whole
      // channel; the rest read its copy.
      const auto members = roles.product<Members>(
          [&active](const mpi::AllgatherResult& all) {
            return members_of(active, *all.blocks);
          });
      return build(self, active, *members, config);
    }
    // A crash landed inside setup: re-derive membership from the agreed
    // survivor view and retry the exchange over it. Each retry excludes at
    // least one newly dead rank, so the loop terminates — with a channel
    // over the survivors, or with build's clean "no producers/consumers
    // left" error on every survivor alike. Never a deadlock.
    const std::uint64_t ctx = mpi::Machine::derive_context(
        parent.context(), 0x5E7B4C0ull + static_cast<std::uint64_t>(attempt),
        config.channel_id);
    active = mpi::Comm(ctx, verdict.survivors);
  }
}

Channel Channel::attach(mpi::Rank& self, const mpi::Comm& parent,
                        const std::function<std::int8_t(int)>& role_of,
                        ChannelConfig config) {
  if (self.rank_in(parent) < 0)
    throw std::logic_error("Channel::attach: caller not in parent communicator");
  std::vector<std::byte> roles(static_cast<std::size_t>(parent.size()));
  for (int r = 0; r < parent.size(); ++r)
    roles[static_cast<std::size_t>(r)] = static_cast<std::byte>(role_of(r));
  return build(self, parent, members_of(parent, roles), config);
}

Channel::Members Channel::members_of(const mpi::Comm& parent,
                                     std::span<const std::byte> roles) {
  const int size = parent.size();
  std::vector<int> members;  // world ranks: producers first, then consumers
  int producers = 0;
  for (int r = 0; r < size; ++r)
    if (roles[static_cast<std::size_t>(r)] == std::byte{1}) {
      members.push_back(parent.world_rank(r));
      ++producers;
    }
  int consumers = 0;
  for (int r = 0; r < size; ++r)
    if (roles[static_cast<std::size_t>(r)] == std::byte{2}) {
      members.push_back(parent.world_rank(r));
      ++consumers;
    }
  if (producers == 0 || consumers == 0)
    throw std::invalid_argument(
        "Channel::create: need at least one producer and one consumer");
  return {mpi::Group(std::move(members)), producers, consumers};
}

Channel Channel::build(mpi::Rank& self, const mpi::Comm& parent,
                       const Members& members, ChannelConfig config) {
  Channel ch;
  ch.config_ = config;
  ch.producer_count_ = members.producers;
  ch.consumer_count_ = members.consumers;
  const std::uint64_t ctx = mpi::Machine::derive_context(
      parent.context(), 0xC4A77E1ull, config.channel_id);
  const mpi::Comm channel_comm(ctx, members.group);
  // Non-members keep an invalid comm -> inert handle.
  if (channel_comm.rank_of_world(self.world_rank()) >= 0)
    ch.comm_ = channel_comm;
  return ch;
}

void Channel::free(mpi::Rank& self) {
  if (!valid() || self.rank_in(comm_) < 0) return;
  // A crashed rank's own unwinding must not start new communication.
  if (self.failed()) return;
  if (config_.resilient()) {
    // Agreement-based drain, replacing the formerly *skipped* quiesce: every
    // live member (including restarted incarnations that re-attached)
    // deposits, crashed members are excused by the failure record, and all
    // survivors leave with the same final membership view instead of
    // tearing down blind.
    (void)self.agree(comm_);
    return;
  }
  // The quiesce barrier is failure-aware: it completes (with a failed
  // outcome) even if a member crashed, so teardown never deadlocks.
  (void)self.barrier(comm_);
}

int Channel::my_producer_index(const mpi::Rank& self) const noexcept {
  if (!valid()) return -1;
  const int r = comm_.rank_of_world(self.world_rank());
  return (r >= 0 && r < producer_count_) ? r : -1;
}

int Channel::my_consumer_index(const mpi::Rank& self) const noexcept {
  if (!valid()) return -1;
  const int r = comm_.rank_of_world(self.world_rank());
  return r >= producer_count_ ? r - producer_count_ : -1;
}

int Channel::term_tree_depth() const noexcept {
  int depth = 0;
  for (int c = consumer_count_ - 1; c > 0; c = term_parent(c)) ++depth;
  return depth;
}

}  // namespace ds::stream
