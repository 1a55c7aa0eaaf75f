// Communicators: a Group plus an isolated matching context.
//
// Messages match on (context, source, tag); two communicators never exchange
// traffic even with identical members, which is what lets MPIStream channels
// coexist with application point-to-point traffic undisturbed.
#pragma once

#include <cstdint>
#include <memory>

#include "mpi/group.hpp"

namespace ds::mpi {

/// A default-constructed Comm is the invalid handle (what split returns for
/// MPI_UNDEFINED). It has no members: size() is 0, rank_of_world() is -1 and
/// world_rank() throws std::out_of_range, so every Rank call given it throws
/// its "not a member" std::logic_error.
class Comm {
 public:
  Comm() = default;
  Comm(std::uint64_t context, Group group)
      : state_(std::make_shared<const State>(State{context, std::move(group)})) {}

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(state_); }
  /// Matching context; 0 for the invalid handle.
  [[nodiscard]] std::uint64_t context() const noexcept {
    return state_ ? state_->context : 0;
  }
  /// Members; the empty group for the invalid handle.
  [[nodiscard]] const Group& group() const noexcept {
    return state_ ? state_->group : no_members();
  }
  [[nodiscard]] int size() const noexcept { return group().size(); }

  /// Translate a rank in this communicator to a world rank.
  [[nodiscard]] int world_rank(int rank) const {
    return group().world_rank(rank);
  }
  /// Rank of a world rank in this communicator (-1 if not a member). O(1).
  [[nodiscard]] int rank_of_world(int world_rank) const noexcept {
    return state_ ? state_->group.rank_of(world_rank) : -1;
  }

  [[nodiscard]] bool operator==(const Comm& other) const noexcept {
    return state_ && other.state_ && state_->context == other.state_->context;
  }

 private:
  struct State {
    std::uint64_t context = 0;
    Group group;
  };
  [[nodiscard]] static const Group& no_members() noexcept;
  std::shared_ptr<const State> state_;
};

}  // namespace ds::mpi
