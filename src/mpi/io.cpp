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

  // Phase 0: everyone learns everyone's block size (the collective-buffering
  // equivalent of exchanging file-view offsets). Zero-initialized so a
  // block satisfied by failure reads as a zero-byte member — the phase
  // structure below then runs identically on every live member regardless
  // of where a crash lands (no per-rank decision that could diverge), which
  // is what makes the whole collective hang-free.
  std::vector<std::uint64_t> sizes(static_cast<std::size_t>(size), 0);
  const std::uint64_t mine = local.on_wire();
  const Status exchanged =
      self.allgather(comm_, SendBuf::of(&mine, 1), sizes.data());

  std::vector<std::uint64_t> displs(static_cast<std::size_t>(size) + 1, 0);
  std::partial_sum(sizes.begin(), sizes.end(), displs.begin() + 1);
  const std::uint64_t base = file_->claim_collective(epoch_++, displs.back());

  // Phase 1+2: ship blocks to the group aggregator; aggregators write one
  // large contiguous chunk each.
  const int group = (me / aggregator_stride_) * aggregator_stride_;
  const int group_end = std::min(group + aggregator_stride_, size);
  const auto& net = machine_->config().network;

  if (me == group) {
    const std::uint64_t group_bytes =
        displs[static_cast<std::size_t>(group_end)] -
        displs[static_cast<std::size_t>(group)];
    // Assemble real content only for fully-real payloads; header-only or
    // synthetic blocks keep their sizes but store no bytes.
    const bool real = local.ptr != nullptr && local.bytes == local.on_wire();
    std::vector<std::byte> assembled;
    if (real) {
      assembled.resize(group_bytes);
      std::memcpy(assembled.data() +
                      (displs[static_cast<std::size_t>(me)] -
                       displs[static_cast<std::size_t>(group)]),
                  local.ptr, local.bytes);
    }
    std::vector<Request> recvs;
    for (int r = group + 1; r < group_end; ++r) {
      const std::uint64_t offset = displs[static_cast<std::size_t>(r)] -
                                   displs[static_cast<std::size_t>(group)];
      recvs.push_back(machine_->post_recv(
          comm_.context(), self.world_rank(), r, tag,
          real ? RecvBuf{assembled.data() + offset,
                         static_cast<std::size_t>(sizes[static_cast<std::size_t>(r)])}
               : RecvBuf::discard(static_cast<std::size_t>(
                     sizes[static_cast<std::size_t>(r)])),
          /*on_complete=*/{}, /*fused_wake=*/false,
          /*src_world=*/comm_.world_rank(r)));
    }
    self.wait_all(recvs);
    const util::SimTime done = machine_->filesystem().write(
        *file_, base + displs[static_cast<std::size_t>(group)], group_bytes,
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
