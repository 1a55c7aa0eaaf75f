// MPI-IO-style file access over the parallel file-system model.
//
// Implements the three write paths the particle-I/O experiment compares
// (paper Sec. IV-D2, Fig. 8):
//
//  * write_all    — collective two-phase: exchange sizes, ship blocks to one
//    aggregator per node, aggregators issue large contiguous writes, then a
//    barrier. Matches ROMP/ROMIO-style collective buffering.
//  * write_shared — independent append through the shared file pointer; each
//    call serializes at the metadata server's lock before data moves.
//  * write_at     — independent write at an explicit offset (used by the
//    decoupled I/O group, which computes its own offsets and buffers big).
//
// set_view models the per-iteration file-view recomputation iPIC3D's
// collective path needs because particle counts change every step: one
// metadata RPC per rank plus a synchronizing barrier.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fs/filesystem.hpp"
#include "mpi/comm.hpp"
#include "mpi/types.hpp"

namespace ds::mpi {

class Machine;
class Rank;

class File {
 public:
  /// Opens (creates) `name` on `machine`'s file system, shared by the
  /// members of `comm`. Every member must construct its own File handle.
  /// A handle keeps no collective state of its own: handles opened later
  /// over the same file continue where earlier collective writes ended.
  File(Machine& machine, Comm comm, std::string name,
       int aggregator_stride = 32);

  /// Collective append of each member's block, laid out in rank order.
  /// All members must call; `local.ptr` may be null (synthetic). An
  /// aggregation group's bytes are stored when any of its blocks carries
  /// real content; synthetic blocks read back as zeros.
  ///
  /// The append claims its file extent under a key derived from the
  /// communicator's context and the collective's tag, so every member
  /// lands on the same base whichever File handle it writes through, and a
  /// fresh handle over the same communicator appends after earlier writes.
  /// The sizes are exchanged by the count-free allgather, and every member
  /// reads its one shared result: no member fills a P-entry size array of
  /// its own. The first member to read it derives the sizes' prefix sums,
  /// one P + 1 array per call that goes with the result; every member reads
  /// the total and its aggregation group's offset there, and members let
  /// go of both before blocks ship.
  ///
  /// Failure-aware: a member crash never hangs the collective. The phase
  /// structure runs to completion on every live member (a dead member's
  /// block reads as zero bytes, its exchanges are satisfied by failure) and
  /// the returned status carries `failed = true` on members that observed
  /// the crash. File content of a failed collective write is undefined;
  /// recovery is agree() + a fresh File over the surviving membership.
  Status write_all(Rank& self, SendBuf local);

  /// Independent shared-pointer append.
  void write_shared(Rank& self, SendBuf local);

  /// Independent write at an explicit offset.
  void write_at(Rank& self, std::uint64_t offset, SendBuf local);

  /// Collective file-view (re)definition: per-rank metadata RPC + barrier.
  /// Failure-aware like write_all (a crash of the metadata rank — or any
  /// member — yields a failed status on the survivors, never a deadlock).
  Status set_view(Rank& self);

 private:
  Machine* machine_;
  Comm comm_;
  fs::SimFile* file_;
  int aggregator_stride_;
};

}  // namespace ds::mpi
