// Parallel file-system model (Lustre-like).
//
// The particle-I/O experiment (paper Sec. IV-D2, Fig. 8) depends on three
// mechanisms, all modeled here:
//
//  * striped object servers — a write occupies the servers its byte range
//    stripes over; servers serialize requests, so many clients writing small
//    records queue behind each other;
//  * a metadata server — every independent operation pays an RPC that
//    serializes at the MDS; file-view (re)definition is metadata traffic;
//  * a shared-file-pointer lock — MPI_File_write_shared must atomically
//    advance a global pointer, one client at a time, before data moves.
//
// Completion times are returned to callers (fibers decide how to wait);
// server/MDS occupancy is mutated immediately, which is correct because the
// discrete-event engine hands out nondecreasing `start` times.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/time.hpp"

namespace ds::fs {

struct FsConfig {
  int num_servers = 16;                    ///< object storage targets
  double server_ns_per_byte = 1.0;         ///< 1 GB/s per OST
  util::SimTime op_latency = util::microseconds(50);        ///< per request
  /// Server occupancy per (request, stripe): request setup, allocation,
  /// journal. This is what makes many small writes slower than few big ones.
  util::SimTime server_op_service = util::microseconds(100);
  util::SimTime metadata_latency = util::microseconds(20);  ///< MDS RPC wire+queue
  /// MDS per-op service. Shared-file-pointer updates serialize here; under
  /// contention a Lustre-class lock round trip is hundreds of microseconds.
  util::SimTime metadata_service = util::microseconds(200);
  std::uint64_t stripe_bytes = 1 << 20;    ///< striping unit

  [[nodiscard]] static FsConfig lustre_like() noexcept { return {}; }
};

/// One shared file: a byte extent plus (optionally) recorded content.
/// Content is kept only for real payloads so tests can verify that all three
/// write paths produce equivalent files; synthetic writes track size alone.
class SimFile {
 public:
  explicit SimFile(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }

  /// Atomically reserve `bytes` at the shared pointer; returns the offset.
  [[nodiscard]] std::uint64_t reserve_shared(std::uint64_t bytes) noexcept {
    const std::uint64_t at = shared_pointer_;
    shared_pointer_ += bytes;
    size_ = std::max(size_, shared_pointer_);
    return at;
  }

  void note_extent(std::uint64_t offset, std::uint64_t bytes) noexcept {
    size_ = std::max(size_, offset + bytes);
  }

  /// Base offset for the collective write `key` appending `total` bytes.
  /// The first caller allocates; later callers (other ranks of the same
  /// collective, passing the same key) observe the same base. Requires
  /// identical `total` per key.
  [[nodiscard]] std::uint64_t claim_collective(std::uint64_t key,
                                               std::uint64_t total) {
    auto [it, inserted] = collective_bases_.try_emplace(key, collective_end_);
    if (inserted) {
      collective_end_ += total;
      size_ = std::max(size_, collective_end_);
    }
    return it->second;
  }

  void store(std::uint64_t offset, const void* data, std::uint64_t bytes);

  /// Reassembled content (gaps zero-filled); for tests.
  [[nodiscard]] std::vector<std::byte> content() const;

 private:
  std::string name_;
  std::uint64_t size_ = 0;
  std::uint64_t shared_pointer_ = 0;
  std::uint64_t collective_end_ = 0;
  std::map<std::uint64_t, std::uint64_t> collective_bases_;
  std::map<std::uint64_t, std::vector<std::byte>> chunks_;
};

class FileSystem {
 public:
  explicit FileSystem(FsConfig config);

  /// Open (or create) a file by name; returned pointer stays valid for the
  /// FileSystem's lifetime.
  [[nodiscard]] SimFile* open(const std::string& name);

  /// Write `bytes` at `offset`, first touching the wire at `start`.
  /// Returns the completion time. `data` may be null (synthetic).
  util::SimTime write(SimFile& file, std::uint64_t offset, std::uint64_t bytes,
                      const void* data, util::SimTime start);

  /// One metadata RPC (view definition, open, stat) issued at `start`;
  /// returns its completion time. Serializes at the MDS.
  util::SimTime metadata_rpc(util::SimTime start);

  /// Shared-pointer append: MDS lock + pointer advance, then data write.
  /// Returns {assigned offset, completion time}.
  struct SharedAppendResult {
    std::uint64_t offset;
    util::SimTime complete_at;
  };
  SharedAppendResult shared_append(SimFile& file, std::uint64_t bytes,
                                   const void* data, util::SimTime start);

  [[nodiscard]] const FsConfig& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t total_bytes_written() const noexcept { return total_bytes_; }
  [[nodiscard]] std::uint64_t total_requests() const noexcept { return total_requests_; }

 private:
  FsConfig config_;
  std::vector<util::SimTime> server_free_;
  util::SimTime mds_free_ = 0;
  std::map<std::string, SimFile> files_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t total_requests_ = 0;
};

}  // namespace ds::fs
