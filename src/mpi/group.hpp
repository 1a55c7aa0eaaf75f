// Process groups: ordered sets of world ranks (MPI_Group).
//
// Decoupling (paper Sec. II-C) starts by splitting COMM_WORLD's processes
// into disjoint groups, one per operation subset; Group is the value type
// those splits produce.
//
// A Group is immutable and interned. Every simulated rank derives the same
// groups (its communicators, a channel's members, a pipeline's stages), so
// equal member lists share one process-wide object that carries the inverse
// index as well: copying a Group copies a pointer, and rank_of is one bounds
// check plus one array load instead of a scan of the member list.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace ds::mpi {

class Group {
 public:
  /// The empty group.
  Group();
  /// Interns `world_ranks` (position = group rank). Throws
  /// std::invalid_argument on a duplicate or a negative member.
  explicit Group(std::vector<int> world_ranks);

  /// The world group {0, 1, ..., n-1}.
  [[nodiscard]] static Group world(int n);

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(data_->members.size());
  }
  [[nodiscard]] bool empty() const noexcept { return data_->members.empty(); }

  /// World rank of group member `r`; throws std::out_of_range if invalid.
  [[nodiscard]] int world_rank(int r) const;

  /// Rank of `world_rank` in this group, or -1 if not a member. O(1).
  [[nodiscard]] int rank_of(int world_rank) const noexcept {
    // A negative value wraps past every index entry.
    const auto w = static_cast<std::size_t>(static_cast<unsigned>(world_rank));
    return w < data_->index.size() ? data_->index[w] : -1;
  }
  [[nodiscard]] bool contains(int world_rank) const noexcept {
    return rank_of(world_rank) >= 0;
  }

  /// New group keeping members at positions `ranks`, in that order.
  [[nodiscard]] Group include(const std::vector<int>& ranks) const;
  /// New group dropping members at positions `ranks` (order preserved).
  [[nodiscard]] Group exclude(const std::vector<int>& ranks) const;

  /// Members whose position in this group satisfies `pred(position)`.
  template <typename Pred>
  [[nodiscard]] Group filter_by_position(Pred pred) const {
    std::vector<int> out;
    for (int r = 0; r < size(); ++r)
      if (pred(r)) out.push_back(members()[static_cast<std::size_t>(r)]);
    return Group(std::move(out));
  }

  /// Position (group rank) -> world rank. Groups with equal member lists
  /// return the same shared vector.
  [[nodiscard]] const std::vector<int>& members() const noexcept {
    return data_->members;
  }

  [[nodiscard]] bool operator==(const Group& other) const noexcept {
    return data_ == other.data_;  // interning: equal lists share one object
  }

 private:
  struct Data {
    std::vector<int> members;  ///< position (group rank) -> world rank
    std::vector<int> index;    ///< world rank -> position, -1 elsewhere
  };
  [[nodiscard]] static std::shared_ptr<const Data> intern(
      std::vector<int> members);

  std::shared_ptr<const Data> data_;
};

}  // namespace ds::mpi
