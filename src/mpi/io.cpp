#include "mpi/io.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "mpi/machine.hpp"
#include "mpi/rank.hpp"

namespace ds::mpi {

namespace {
/// Hold the fiber until virtual time `t` (I/O completion), traced as "io".
void wait_until(Rank& self, util::SimTime t, const char* label = "io") {
  const util::SimTime now = self.now();
  if (t > now) {
    self.process().trace_begin(label);
    self.process().advance(t - now);
    self.process().trace_end();
  }
}
}  // namespace

File::File(Machine& machine, Comm comm, std::string name, int aggregator_stride)
    : machine_(&machine),
      comm_(std::move(comm)),
      file_(machine.filesystem().open(name)),
      aggregator_stride_(std::max(1, aggregator_stride)) {}

Status File::write_all(Rank& self, SendBuf local) {
  const int me = self.rank_in(comm_);
  if (me < 0) throw std::logic_error("write_all: caller not in the file's communicator");
  const int size = comm_.size();
  const int tag = self.next_coll_tag(comm_);
  const int group = (me / aggregator_stride_) * aggregator_stride_;
  const int group_end = std::min(group + aggregator_stride_, size);

  // Phase 0: everyone learns everyone's block size (the collective-buffering
  // equivalent of exchanging file-view offsets), reading the allgather's one
  // shared copy. A block never deposited reads as a zero-byte member, and a
  // receive satisfied by failure still completes, so the phase structure
  // below runs to completion on every live member wherever a crash lands,
  // which is what makes the whole collective hang-free. The top bit of an
  // entry marks a block that carries real bytes (all of them, at least
  // one). The first member to read the sizes derives their prefix sums
  // once for the call; every member reads the total and its aggregation
  // group's offset from them, and the aggregator keeps its group's sizes.
  // No member holds the sizes once blocks ship.
  constexpr std::uint64_t kRealBit = std::uint64_t{1} << 63;
  std::uint64_t total = 0;
  std::uint64_t group_base = 0;  // file offset of my group's first block
  std::vector<std::uint64_t> group_sizes;  // aggregator only
  bool real = false;  // aggregator only: some block of my group is real
  Status exchanged;
  {
    const bool carries = local.ptr != nullptr && local.bytes > 0 &&
                         local.bytes == local.on_wire();
    const std::uint64_t mine = local.on_wire() | (carries ? kRealBit : 0);
    const AllgatherResult sizes = self.allgather(comm_, SendBuf::of(&mine, 1));
    exchanged = sizes.status;
    // offsets[r]: where member r's block starts within the append.
    const auto offsets = sizes.product<std::vector<std::uint64_t>>(
        [size](const AllgatherResult& all) {
          std::vector<std::uint64_t> sums(static_cast<std::size_t>(size) + 1);
          for (std::size_t r = 0; r + 1 < sums.size(); ++r)
            sums[r + 1] = sums[r] + (all.at<std::uint64_t>(r) & ~kRealBit);
          return sums;
        });
    total = offsets->back();
    group_base = (*offsets)[static_cast<std::size_t>(group)];
    if (me == group) {
      for (int r = group; r < group_end; ++r) {
        const auto entry = sizes.at<std::uint64_t>(static_cast<std::size_t>(r));
        group_sizes.push_back(entry & ~kRealBit);
        real = real || (entry & kRealBit) != 0;
      }
    }
  }
  // Every member derives the same claim key from the communicator and this
  // collective's tag, whichever File handle it writes through.
  const std::uint64_t base = file_->claim_collective(
      Machine::derive_context(comm_.context(), 0xF11EC0ull,
                              static_cast<std::uint32_t>(tag)),
      total);

  // Phase 1+2: ship blocks to the group aggregator; aggregators write one
  // large contiguous chunk each.
  const auto& net = machine_->config().network;

  if (me == group) {
    const std::uint64_t group_bytes = std::accumulate(
        group_sizes.begin(), group_sizes.end(), std::uint64_t{0});
    // Assemble the group's content only when one of its blocks is real;
    // header-only or synthetic blocks keep their sizes, store nothing past
    // their headers and read back as zeros. My own block leads the group.
    std::vector<std::byte> assembled;
    if (real) {
      assembled.resize(group_bytes);
      if (local.ptr != nullptr)
        std::memcpy(assembled.data(), local.ptr, local.bytes);
    }
    std::vector<Request> recvs;
    std::uint64_t offset = group_sizes.front();  // within the group
    for (int r = group + 1; r < group_end; ++r) {
      const auto bytes = static_cast<std::size_t>(
          group_sizes[static_cast<std::size_t>(r - group)]);
      recvs.push_back(machine_->post_recv(
          comm_.context(), self.world_rank(), r, tag,
          real ? RecvBuf{assembled.data() + offset, bytes}
               : RecvBuf::discard(bytes),
          /*on_complete=*/{}, /*fused_wake=*/false,
          /*src_world=*/comm_.world_rank(r)));
      offset += bytes;
    }
    self.wait_all(recvs);
    const util::SimTime done = machine_->filesystem().write(
        *file_, base + group_base, group_bytes,
        real ? assembled.data() : nullptr, self.now());
    wait_until(self, done);
  } else {
    // Non-aggregators ship their block (zero-byte blocks still sync).
    self.process().advance(net.send_overhead);
    const Request req = machine_->post_send(comm_.context(), me,
                                            self.world_rank(),
                                            comm_.world_rank(group), tag, local);
    self.wait(req);
  }
  const Status synced = self.barrier(comm_);
  Status out = synced;
  out.failed = exchanged.failed || synced.failed;
  return out;
}

void File::write_shared(Rank& self, SendBuf local) {
  const void* content =
      local.bytes == local.on_wire() ? local.ptr : nullptr;
  const auto result = machine_->filesystem().shared_append(
      *file_, local.on_wire(), content, self.now());
  wait_until(self, result.complete_at);
}

void File::write_at(Rank& self, std::uint64_t offset, SendBuf local) {
  const void* content =
      local.bytes == local.on_wire() ? local.ptr : nullptr;
  const util::SimTime done = machine_->filesystem().write(
      *file_, offset, local.on_wire(), content, self.now());
  wait_until(self, done);
}

Status File::set_view(Rank& self) {
  // Displacement recomputation is client-side; one member refreshes the file
  // metadata, then the collective synchronizes (the per-iteration cost the
  // paper attributes to iPIC3D's changing particle counts). If the metadata
  // rank is dead, survivors skip straight to the failure-aware barrier and
  // observe a failed outcome there — a writer crash inside collective IO
  // setup is recoverable, not a deadlock.
  if (self.rank_in(comm_) == 0) {
    const util::SimTime done = machine_->filesystem().metadata_rpc(self.now());
    wait_until(self, done, "view");
  }
  return self.barrier(comm_);
}

}  // namespace ds::mpi
