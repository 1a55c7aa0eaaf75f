// Particle I/O: the three write strategies of paper Sec. IV-D2 (Fig. 8).
//
//  * Collective — MPI_File_write_all with a per-dump file-view redefinition
//    (particle counts change every step, so iPIC3D must recompute
//    displacements and reset the view each time), then a two-phase
//    collective write.
//  * Shared     — MPI_File_write_shared: every rank independently appends
//    through the shared file pointer, serializing at the lock manager.
//  * Decoupled  — a chained pipeline (compute -> reduce -> writeback):
//    compute ranks stream particle batches to a writeback stage that
//    buffers aggressively in memory and issues few large writes,
//    overlapping compute with I/O (paper: "it can dedicate substantial
//    memory for buffering"). Alongside the bulk flow, per-dump summaries
//    stream to a reduce stage that merges them into per-writer byte
//    manifests; writers verify the manifest before their final flush — an
//    end-to-end completeness check on the decoupled dump path.
//
// Real-data mode writes actual particle ids so tests can verify that all
// three paths produce files with identical content (as a multiset).
#pragma once

#include <cstdint>

#include "apps/pic/particles.hpp"
#include "mpi/machine.hpp"

namespace ds::apps::pic {

enum class IoVariant { Collective, Shared, Decoupled };

struct PicIoConfig {
  std::uint64_t particles_per_rank = 250'000;
  int steps = 5;  ///< dumps
  double ns_mover_per_particle = 24.0;
  std::size_t particle_bytes = sizeof(Particle);

  int stride = 16;                              ///< decoupling split
  std::size_t batch_particles = 4096;           ///< stream element batch
  std::size_t helper_buffer_bytes = 64u << 20;  ///< flush threshold

  /// Resilience for the decoupled chain (ds::resilience): elements per
  /// epoch on each flow, 0 = off. With it on, the writeback stage runs
  /// manual durability — a writer acknowledges its consumed batches only
  /// after flushing them to the file — so an injected writer crash (via
  /// mpi::MachineConfig::faults) replays exactly the batches whose bytes
  /// had not reached storage, and the surviving writer that adopts the dead
  /// writer's flows completes the dump byte-identically. In real-data mode
  /// the writeback is additionally *idempotent*: every batch is written at
  /// the file offset its leading particle id determines (step-major, then
  /// worker-major layout), so replayed or redelivered batches overwrite the
  /// same bytes and the dump is byte-identical to a fault-free run across
  /// producer crashes, writer crashes, and writer rejoins.
  std::uint32_t checkpoint_interval = 0;

  bool real_data = false;  ///< write real particle-id payloads
  std::uint64_t seed = 42;
};

struct PicIoResult {
  double seconds = 0.0;      ///< whole-app makespan
  double io_seconds = 0.0;   ///< max over compute ranks: time in dump phase
  std::uint64_t file_bytes = 0;
  std::vector<std::byte> file_content;  ///< real-data mode only
};

[[nodiscard]] PicIoResult run_pic_io(IoVariant variant, const PicIoConfig& config,
                                     const mpi::MachineConfig& machine_config);

/// The file name each run writes (for content inspection in tests).
[[nodiscard]] const char* pic_io_file_name();

}  // namespace ds::apps::pic
