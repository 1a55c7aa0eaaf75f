// Decoupling group plans (paper Sec. II-C, IV).
//
// The evaluation dedicates "one out of every 8 / 16 / 32 processes"
// (alpha = 12.5% / 6.25% / 3.125%) to the decoupled operation. GroupPlan
// captures that interleaved split of a communicator into workers (who keep
// the main operations) and helpers (who run the decoupled one): stride 8,
// 16 or 32. A plan plugs into decouple::Pipeline via with_plan /
// with_stride.
#pragma once

#include <vector>

#include "mpi/comm.hpp"

namespace ds::stream {

class GroupPlan {
 public:
  /// Every `stride`-th rank (the last of each block) becomes a helper:
  /// stride=16 gives alpha = 1/16 = 6.25%. Requires stride >= 2 and at least
  /// one full block.
  [[nodiscard]] static GroupPlan interleaved(const mpi::Comm& parent, int stride);

  [[nodiscard]] bool is_helper(int parent_rank) const noexcept;
  [[nodiscard]] bool is_worker(int parent_rank) const noexcept {
    return !is_helper(parent_rank);
  }
  [[nodiscard]] int worker_count() const noexcept {
    return static_cast<int>(workers_.size());
  }
  [[nodiscard]] int helper_count() const noexcept {
    return static_cast<int>(helpers_.size());
  }
  /// Parent-comm ranks.
  [[nodiscard]] const std::vector<int>& workers() const noexcept { return workers_; }
  [[nodiscard]] const std::vector<int>& helpers() const noexcept { return helpers_; }

 private:
  std::vector<int> workers_;
  std::vector<int> helpers_;
  int stride_ = 0;
};

}  // namespace ds::stream
