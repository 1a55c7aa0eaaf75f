#include "resilience/failover.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/channel.hpp"
#include "mpi/machine.hpp"

namespace ds::resilience {

void ReplayLog::retain(std::uint64_t seq0, std::uint32_t elements,
                       std::uint64_t wire, const std::byte* frame,
                       std::size_t bytes) {
  RetainedFrame rf;
  rf.seq0 = seq0;
  rf.elements = elements;
  rf.wire = wire;
  if (!spare_.empty()) {
    rf.buf = std::move(spare_.back());  // capacity recycled from a truncation
    spare_.pop_back();
    rf.buf.clear();
  }
  rf.buf.resize(bytes);
  std::memcpy(rf.buf.data(), frame, bytes);
  retained_elements_ += elements;
  frames_.push_back(std::move(rf));
}

void ReplayLog::truncate(std::uint64_t durable_seq) {
  if (durable_seq <= durable_) return;  // acks may arrive out of order
  durable_ = durable_seq;
  // Frames are in seq0 order, so the durable ones form a prefix: recycle
  // their buffers, then drop the prefix in one erase.
  auto live = frames_.begin();
  for (; live != frames_.end() && live->seq0 + live->elements <= durable_;
       ++live) {
    retained_elements_ -= live->elements;
    spare_.push_back(std::move(live->buf));
  }
  frames_.erase(frames_.begin(), live);
}

bool DedupFilter::admit(int producer, int flow, std::uint64_t seq) {
  auto& next = next_[key(producer, flow)];
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
  auto& next = next_[key(producer, flow)];
  if (seq > next) next = seq;
}

std::uint64_t DedupFilter::next_seq(int producer, int flow) const noexcept {
  const auto it = next_.find(key(producer, flow));
  return it == next_.end() ? 0 : it->second;
}

namespace {

/// Cell order of a sealed matrix: by flow, then producer.
bool by_flow(const CountMatrix::Cell& a, const CountMatrix::Cell& b) noexcept {
  return a.flow != b.flow ? a.flow < b.flow : a.producer < b.producer;
}

}  // namespace

void CountMatrix::set_row(int producer, std::span<const std::uint64_t> counts) {
  const auto row = static_cast<std::uint32_t>(producer);
  const std::size_t flows = std::min(counts.size(), flows_);
  if (!sealed_) {
    // Gathering: append, dropping an earlier copy of the row if there is one.
    if (has_row_.empty()) has_row_.assign(producers_, 0);
    if (has_row_[row] != 0)
      std::erase_if(cells_, [row](const Cell& c) { return c.producer == row; });
    has_row_[row] = 1;
    for (std::size_t f = 0; f < flows; ++f)
      if (counts[f] > 0)
        cells_.push_back(Cell{row, static_cast<std::uint32_t>(f), counts[f]});
    return;
  }
  // Sealed: rewrite cell by cell in place, keeping the order.
  for (std::size_t f = 0; f < flows_; ++f) {
    const Cell cell{row, static_cast<std::uint32_t>(f),
                    f < flows ? counts[f] : 0};
    const auto it =
        std::lower_bound(cells_.begin(), cells_.end(), cell, by_flow);
    const bool present = it != cells_.end() && it->flow == cell.flow &&
                         it->producer == row;
    if (present && cell.count > 0)
      it->count = cell.count;
    else if (present)
      cells_.erase(it);
    else if (cell.count > 0)
      cells_.insert(it, cell);
  }
}

void CountMatrix::seal() {
  if (sealed_) return;
  std::sort(cells_.begin(), cells_.end(), by_flow);
  sealed_ = true;
  has_row_ = {};
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

std::vector<std::byte> CountMatrix::encode() const {
  const std::uint64_t n = cells_.size();
  const std::size_t sparse = sizeof n + n * sizeof(Cell);
  std::vector<std::byte> out;
  if (sparse < dense_bytes()) {
    // The count prefix keeps even an all-zero matrix a real payload.
    out.resize(sparse);
    std::memcpy(out.data(), &n, sizeof n);
    if (n > 0)
      std::memcpy(out.data() + sizeof n, cells_.data(), n * sizeof(Cell));
    return out;
  }
  // About half full or more: the dense matrix is no larger than the cells.
  out.assign(dense_bytes(), std::byte{0});
  for (const Cell& c : cells_)
    std::memcpy(out.data() + (c.producer * flows_ + c.flow) * sizeof c.count,
                &c.count, sizeof c.count);
  return out;
}

bool CountMatrix::decode(std::span<const std::byte> payload) {
  std::vector<Cell> cells;
  if (payload.size() == dense_bytes()) {
    // Column by column, so the cells come out sealed.
    for (std::size_t f = 0; f < flows_; ++f)
      for (std::size_t p = 0; p < producers_; ++p) {
        std::uint64_t count = 0;
        std::memcpy(&count, payload.data() + (p * flows_ + f) * sizeof count,
                    sizeof count);
        if (count > 0)
          cells.push_back(Cell{static_cast<std::uint32_t>(p),
                               static_cast<std::uint32_t>(f), count});
      }
  } else {
    std::uint64_t n = 0;
    if (payload.size() < sizeof n) return false;
    std::memcpy(&n, payload.data(), sizeof n);
    if (n > payload.size() / sizeof(Cell) ||
        payload.size() != sizeof n + n * sizeof(Cell))
      return false;
    cells.resize(n);
    if (n > 0)
      std::memcpy(cells.data(), payload.data() + sizeof n, n * sizeof(Cell));
  }
  cells_ = std::move(cells);
  sealed_ = true;
  has_row_ = {};
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
