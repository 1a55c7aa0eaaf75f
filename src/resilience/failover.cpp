#include "resilience/failover.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/channel.hpp"
#include "mpi/machine.hpp"

namespace ds::resilience {

void ReplayLog::retain(std::uint64_t seq0, std::uint32_t elements,
                       std::uint64_t wire, const std::byte* frame,
                       std::size_t bytes) {
  frames_.push_back(RetainedFrame{seq0, elements, wire, bytes});
  bytes_.insert(bytes_.end(), frame, frame + bytes);
  retained_elements_ += elements;
}

void ReplayLog::truncate(std::uint64_t durable_seq) {
  if (durable_seq <= durable_) return;  // acks may arrive out of order
  durable_ = durable_seq;
  // Frames are in seq0 order, so the durable ones form a prefix of the
  // records and of the bytes: drop each in one erase.
  auto live = frames_.begin();
  std::size_t dropped_bytes = 0;
  for (; live != frames_.end() && live->seq0 + live->elements <= durable_;
       ++live) {
    retained_elements_ -= live->elements;
    dropped_bytes += live->bytes;
  }
  frames_.erase(frames_.begin(), live);
  bytes_.erase(bytes_.begin(),
               bytes_.begin() + static_cast<std::ptrdiff_t>(dropped_bytes));
}

bool DedupFilter::admit(int producer, int flow, std::uint64_t seq) {
  auto& next = cursors_[key(producer, flow)].next;
  if (seq < next) {
    ++duplicates_;
    return false;
  }
  // Sequences within a flow arrive in order (frames preserve per-flow FIFO
  // and replay re-posts in order), so admission advances the cursor by one.
  next = seq + 1;
  return true;
}

void DedupFilter::advance_to(int producer, int flow, std::uint64_t seq) {
  auto& next = cursors_[key(producer, flow)].next;
  if (seq > next) next = seq;
}

bool DedupFilter::mark_durable(int producer, int flow, std::uint64_t upto) {
  auto& durable = cursors_[key(producer, flow)].durable;
  if (upto <= durable) return false;
  durable = upto;
  return true;
}

std::uint64_t DedupFilter::next_seq(int producer, int flow) const noexcept {
  const auto it = cursors_.find(key(producer, flow));
  return it == cursors_.end() ? 0 : it->second.next;
}

namespace {

/// Cell order of a sealed matrix: by flow, then producer.
bool by_flow(const CountMatrix::Cell& a, const CountMatrix::Cell& b) noexcept {
  return a.flow != b.flow ? a.flow < b.flow : a.producer < b.producer;
}

/// Append `producer`'s nonzero counts to `cells`, in flow order.
void append_row(std::vector<CountMatrix::Cell>& cells, std::uint32_t producer,
                std::span<const std::uint64_t> counts) {
  for (std::size_t f = 0; f < counts.size(); ++f)
    if (counts[f] > 0)
      cells.push_back(CountMatrix::Cell{producer, static_cast<std::uint32_t>(f),
                                        counts[f]});
}

}  // namespace

void CountMatrix::set_row(int producer, std::span<const std::uint64_t> counts) {
  const auto row = static_cast<std::uint32_t>(producer);
  counts = counts.first(std::min(counts.size(), flows_));
  const bool had = has_row(producer);
  if (!every_row_) {
    if (has_row_.empty()) has_row_.assign(producers_, 0);
    has_row_[row] = 1;
  }
  if (!sealed()) {
    // Gathering: append, dropping an earlier copy of the row if there is one.
    if (had)
      std::erase_if(gathered_,
                    [row](const Cell& c) { return c.producer == row; });
    append_row(gathered_, row, counts);
    return;
  }
  // Sealed: the cells may be shared, so a row that changes anything is
  // written to a copy, which becomes this matrix's own buffer.
  bool same = true;
  for (std::size_t f = 0; f < flows_ && same; ++f)
    same = count(producer, static_cast<int>(f)) ==
           (f < counts.size() ? counts[f] : 0);
  if (same) return;
  std::vector<Cell> cells;
  cells.reserve(cells_.size() + counts.size());
  std::copy_if(cells_.begin(), cells_.end(), std::back_inserter(cells),
               [row](const Cell& c) { return c.producer != row; });
  const auto kept = static_cast<std::ptrdiff_t>(cells.size());
  append_row(cells, row, counts);
  // The row's cells come in flow order: one merge restores the cell order.
  std::inplace_merge(cells.begin(), cells.begin() + kept, cells.end(),
                     by_flow);
  own(std::move(cells));
}

void CountMatrix::seal() {
  if (sealed()) return;
  std::sort(gathered_.begin(), gathered_.end(), by_flow);
  own(std::exchange(gathered_, {}));
}

void CountMatrix::own(std::vector<Cell> cells) {
  auto buffer = std::make_shared<const std::vector<Cell>>(std::move(cells));
  cells_ = *buffer;
  owner_ = std::move(buffer);
}

std::span<const CountMatrix::Cell> CountMatrix::flow(int flow) const noexcept {
  const auto f = static_cast<std::uint32_t>(flow);
  const auto lo = std::partition_point(
      cells_.begin(), cells_.end(), [f](const Cell& c) { return c.flow < f; });
  const auto hi = std::partition_point(
      lo, cells_.end(), [f](const Cell& c) { return c.flow == f; });
  return {lo, hi};
}

std::uint64_t CountMatrix::flow_total(int flow) const noexcept {
  std::uint64_t total = 0;
  for (const Cell& c : this->flow(flow)) total += c.count;
  return total;
}

std::uint64_t CountMatrix::count(int producer, int flow) const noexcept {
  const auto p = static_cast<std::uint32_t>(producer);
  const std::span<const Cell> cells = this->flow(flow);
  const auto it = std::partition_point(
      cells.begin(), cells.end(),
      [p](const Cell& c) { return c.producer < p; });
  return it != cells.end() && it->producer == p ? it->count : 0;
}

mpi::SharedBuf CountMatrix::share() const {
  return mpi::SharedBuf{owner_, std::as_bytes(cells_), dense_bytes()};
}

bool CountMatrix::adopt(std::shared_ptr<const void> owner,
                        std::span<const std::byte> cells) {
  if (owner == nullptr || cells.size() % sizeof(Cell) != 0 ||
      reinterpret_cast<std::uintptr_t>(cells.data()) % alignof(Cell) != 0)
    return false;
  // The bytes are the announcer's Cell array (share()), so they are read
  // back as the cells they are.
  cells_ = {reinterpret_cast<const Cell*>(cells.data()),
            cells.size() / sizeof(Cell)};
  owner_ = std::move(owner);
  gathered_ = {};
  has_row_ = {};
  every_row_ = true;
  return true;
}

bool consumer_available(const stream::Channel& channel, int c,
                        const mpi::Machine& machine) {
  const int world = channel.comm().world_rank(channel.consumer_rank(c));
  return !machine.rank_failed(world);
}

int failover_target(const stream::Channel& channel, int dead_consumer,
                    const mpi::Machine& machine) {
  const int consumers = channel.consumer_count();
  const auto& network = machine.config().network;
  const int dead_world =
      channel.comm().world_rank(channel.consumer_rank(dead_consumer));
  // First choice: an available consumer on the vacated slot's own node — the
  // adopted flows then travel over shared memory instead of the fabric's
  // shared links.
  for (int step = 1; step < consumers; ++step) {
    const int c = (dead_consumer + step) % consumers;
    const int world = channel.comm().world_rank(channel.consumer_rank(c));
    if (consumer_available(channel, c, machine) &&
        network.same_node(dead_world, world))
      return c;
  }
  for (int step = 1; step < consumers; ++step) {
    const int c = (dead_consumer + step) % consumers;
    if (consumer_available(channel, c, machine)) return c;
  }
  return -1;
}

int effective_aggregator(const stream::Channel& channel,
                         const mpi::Machine& machine) {
  for (int c = 0; c < channel.consumer_count(); ++c)
    if (consumer_available(channel, c, machine)) return c;
  return -1;
}

}  // namespace ds::resilience
