#include "mpi/group.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace ds::mpi {

Group::Group() {
  static const std::shared_ptr<const Data> kEmpty = intern({});
  data_ = kEmpty;
}

Group::Group(std::vector<int> world_ranks)
    : data_(intern(std::move(world_ranks))) {}

std::shared_ptr<const Group::Data> Group::intern(std::vector<int> members) {
  std::uint64_t hash = 0xcbf29ce484222325ull ^ members.size();
  for (const int m : members) {
    hash ^= static_cast<std::uint32_t>(m);
    hash *= 0x100000001b3ull;
  }

  // Process-wide: every simulated rank (and every machine) shares one object
  // per distinct member list. Entries are weak, so a list lives as long as
  // some Group holds it; expired entries go when their bucket is next used.
  static std::mutex mutex;
  static std::unordered_map<std::uint64_t,
                            std::vector<std::weak_ptr<const Data>>>
      table;
  const std::lock_guard<std::mutex> lock(mutex);
  auto& bucket = table[hash];
  std::erase_if(bucket, [](const auto& weak) { return weak.expired(); });
  for (const auto& weak : bucket)
    if (auto shared = weak.lock(); shared && shared->members == members)
      return shared;

  // A new list: building its inverse index is also the validation. Unique
  // members keep rank_of unambiguous; negative ones cannot be indexed (and
  // no layer below addresses a negative world rank).
  std::size_t extent = 0;  // one past the largest member
  for (const int m : members) {
    if (m < 0) throw std::invalid_argument("Group: negative world rank");
    extent = std::max(extent, static_cast<std::size_t>(m) + 1);
  }
  std::vector<int> index(extent, -1);
  for (std::size_t i = 0; i < members.size(); ++i) {
    int& slot = index[static_cast<std::size_t>(members[i])];
    if (slot >= 0) throw std::invalid_argument("Group: duplicate world rank");
    slot = static_cast<int>(i);
  }
  auto data = std::make_shared<const Data>(
      Data{std::move(members), std::move(index)});
  bucket.push_back(data);
  return data;
}

Group Group::world(int n) {
  std::vector<int> all(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
  return Group(std::move(all));
}

int Group::world_rank(int r) const {
  return data_->members.at(static_cast<std::size_t>(r));
}

Group Group::include(const std::vector<int>& ranks) const {
  std::vector<int> out;
  out.reserve(ranks.size());
  for (int r : ranks) out.push_back(world_rank(r));
  return Group(std::move(out));
}

Group Group::exclude(const std::vector<int>& ranks) const {
  const std::vector<int>& mine = members();
  std::vector<bool> drop(mine.size(), false);
  for (int r : ranks) {
    if (r < 0 || static_cast<std::size_t>(r) >= mine.size())
      throw std::out_of_range("Group::exclude: rank out of range");
    drop[static_cast<std::size_t>(r)] = true;
  }
  std::vector<int> out;
  for (std::size_t i = 0; i < mine.size(); ++i)
    if (!drop[i]) out.push_back(mine[i]);
  return Group(std::move(out));
}

}  // namespace ds::mpi
