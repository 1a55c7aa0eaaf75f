#include "core/group_plan.hpp"

#include <stdexcept>

namespace ds::stream {

GroupPlan GroupPlan::interleaved(const mpi::Comm& parent, int stride) {
  if (stride < 2)
    throw std::invalid_argument("GroupPlan::interleaved: stride must be >= 2");
  const int size = parent.size();
  if (size < stride)
    throw std::invalid_argument(
        "GroupPlan::interleaved: communicator smaller than one block");
  GroupPlan plan;
  plan.stride_ = stride;
  for (int r = 0; r < size; ++r) {
    if (r % stride == stride - 1)
      plan.helpers_.push_back(r);
    else
      plan.workers_.push_back(r);
  }
  return plan;
}

bool GroupPlan::is_helper(int parent_rank) const noexcept {
  return stride_ >= 2 && parent_rank % stride_ == stride_ - 1;
}

}  // namespace ds::stream
