#include "apps/pic/pic_io.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "apps/pic/pic_app.hpp"
#include "core/decouple.hpp"
#include "core/group_plan.hpp"
#include "mpi/io.hpp"
#include "mpi/rank.hpp"

namespace ds::apps::pic {

namespace {

using mpi::Rank;
using mpi::SendBuf;

constexpr const char* kFileName = "particles.dump";

[[nodiscard]] util::SimTime ns_time(double ns) {
  return static_cast<util::SimTime>(std::max(0.0, ns));
}

/// Real payload for a rank's dump chunk: particle ids as u64, deterministic
/// per (rank, step, chunk) so content equivalence across variants is exact.
void fill_ids(std::vector<std::uint64_t>& ids, int rank, int step,
              std::uint64_t first, std::size_t count) {
  ids.resize(count);
  for (std::size_t i = 0; i < count; ++i)
    ids[i] = (static_cast<std::uint64_t>(rank) << 40) ^
             (static_cast<std::uint64_t>(step) << 32) ^ (first + i);
}

}  // namespace

const char* pic_io_file_name() { return kFileName; }

PicIoResult run_pic_io(IoVariant variant, const PicIoConfig& config,
                       const mpi::MachineConfig& machine_config) {
  mpi::Machine machine(machine_config);
  const int size = machine.world_size();
  const bool decoupled = variant == IoVariant::Decoupled;

  // The worker/writeback split: rank-interleaved (GroupPlan).
  std::vector<int> worker_ranks;
  std::vector<int> helper_ranks;
  if (decoupled) {
    const auto plan =
        stream::GroupPlan::interleaved(machine.world(), config.stride);
    worker_ranks = plan.workers();
    helper_ranks = plan.helpers();
  }
  // The chained decoupled pipeline carves its reduce stage out of the worker
  // group (the last worker), so one fewer rank computes.
  const bool chained = decoupled && worker_ranks.size() >= 2;
  const int compute_ranks =
      decoupled ? static_cast<int>(worker_ranks.size()) - (chained ? 1 : 0)
                : size;
  const Domain domain = domain_of(compute_ranks);
  const auto counts = modeled_rank_counts(
      domain, config.particles_per_rank * static_cast<std::uint64_t>(size));

  std::vector<double> io_time(static_cast<std::size_t>(compute_ranks), 0.0);
  PicIoResult result;

  // Real mode keeps payload sizes equal to the id stream (8 B per particle)
  // so file content checks are practical; modeled mode uses the full 56 B.
  const std::size_t unit =
      config.real_data ? sizeof(std::uint64_t) : config.particle_bytes;

  // Keyed layout for the idempotent decoupled writeback: step-major, then
  // worker-major, then particle index — every particle id maps to exactly
  // one file offset, computable by any writer from the id alone.
  std::vector<std::uint64_t> prefix_units(counts.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i)
    prefix_units[i + 1] = prefix_units[i] + counts[i];
  const std::uint64_t units_per_step = prefix_units[counts.size()];

  const auto program = [&](Rank& self) {
    const int me = self.rank_in(self.world());

    if (!decoupled) {
      mpi::File file(machine, self.world(), kFileName);
      const std::uint64_t my_count = counts[static_cast<std::size_t>(me)];
      std::vector<std::uint64_t> ids;
      for (int step = 0; step < config.steps; ++step) {
        self.compute(
            ns_time(config.ns_mover_per_particle * static_cast<double>(my_count)),
            "comp");
        const util::SimTime io_begin = self.now();
        self.process().trace_begin("io");
        const std::size_t bytes = static_cast<std::size_t>(my_count) * unit;
        if (config.real_data) fill_ids(ids, me, step, 0, my_count);
        if (variant == IoVariant::Collective) {
          // Counts change every dump: the file view must be recomputed and
          // redefined before the collective write.
          file.set_view(self);
          file.write_all(self, config.real_data
                                   ? SendBuf::of(ids.data(), ids.size())
                                   : SendBuf::synthetic(bytes));
        } else {
          file.write_shared(self, config.real_data
                                      ? SendBuf::of(ids.data(), ids.size())
                                      : SendBuf::synthetic(bytes));
        }
        self.process().trace_end();
        io_time[static_cast<std::size_t>(me)] +=
            util::to_seconds(self.now() - io_begin);
      }
      return;
    }

    // ---------------- decoupled: compute -> reduce -> writeback -----------
    // A three-stage chain. The bulk dump flows straight from the compute
    // stage to the (wide) writeback stage, which buffers aggressively and
    // issues few large writes — the writeback stage keeps every helper, so
    // the I/O group's drain bandwidth (and node locality) matches the plain
    // two-group split. The reduce stage is carved out of the worker group
    // instead: every compute rank streams one summary record per dump to
    // it, it merges them into per-writer byte manifests, and streams those
    // (Directed) to the writeback stage. Each writer verifies it consumed
    // exactly the announced bytes before its final flush — an end-to-end
    // completeness check on the decoupled dump path.
    struct DumpSummary {
      std::int32_t worker = -1;
      std::int32_t step = -1;
      std::uint64_t bytes = 0;
    };
    struct WriterManifest {
      std::uint64_t expected_bytes = 0;
    };
    const std::size_t batch_bytes =
        sizeof(std::uint64_t) + config.batch_particles * unit;
    const bool resilient = config.checkpoint_interval > 0;

    auto pipeline = decouple::Pipeline::over(self, self.world());
    if (resilient) {
      // Stream epochs + consumer failover for the whole chain. On the bulk
      // batches stream each writer registers a durable point (write_fn
      // below), which makes its durability manual: a writer's batches become
      // durable only when their bytes reach the file, so a writer crash
      // replays exactly the unflushed tail to the adopting writer.
      pipeline.with_resilience(config.checkpoint_interval);
    }
    const auto compute_stage = pipeline.stage(
        chained ? std::vector<int>(worker_ranks.begin(), worker_ranks.end() - 1)
                : std::vector<int>(worker_ranks.begin(), worker_ranks.end()));
    decouple::StageHandle reduce_stage;
    if (chained)
      reduce_stage = pipeline.stage(std::vector<int>{worker_ranks.back()});
    const auto write_stage =
        pipeline.stage({helper_ranks.begin(), helper_ranks.end()});
    decouple::StreamOptions batch_options;
    if (resilient) {
      // Writers have external effects: batches become durable at the file
      // flush, not at consumption (see the durable point in write_fn below).
      batch_options.checkpoint_interval = config.checkpoint_interval;
      // Directed keeps the exact Block routing (Channel::route's default
      // peer is the same block assignment). Either mapping keeps producers
      // in their release wait — replay logs alive, terms re-sendable —
      // until their writer has flushed, so a writer crashing *inside its
      // final flush* is still recoverable: the survivors adopt its flows
      // and the producers replay the undurable tail to them. Directed stays
      // because Block would move the dump's virtual time: Directed releases
      // once, channel-wide, after every writer acked the count matrix.
      batch_options.mapping = decouple::Mapping::Directed;
    }
    const auto batches = pipeline.raw_stream_between(
        compute_stage, write_stage, batch_bytes, batch_options);
    decouple::StreamHandle<DumpSummary> summaries;
    decouple::StreamHandle<WriterManifest> manifests;
    if (chained) {
      summaries = pipeline.stream_between<DumpSummary>(compute_stage, reduce_stage);
      decouple::StreamOptions directed;
      directed.mapping = decouple::Mapping::Directed;
      manifests = pipeline.stream_between<WriterManifest>(reduce_stage, write_stage,
                                                          0, directed);
    }

    const auto compute_fn = [&](decouple::Context& ctx) {
      const int w = ctx.stage_member_index();
      auto& s = ctx[batches];
      const std::uint64_t my_count = counts[static_cast<std::size_t>(w)];
      std::vector<std::uint64_t> ids;
      for (int step = 0; step < config.steps; ++step) {
        self.compute(ns_time(config.ns_mover_per_particle *
                             static_cast<double>(my_count)),
                     "comp");
        const util::SimTime io_begin = self.now();
        self.process().trace_begin("io");
        // Stream the dump in batches; no waiting on storage.
        std::uint64_t step_bytes = 0;
        for (std::uint64_t first = 0; first < my_count;
             first += config.batch_particles) {
          const std::size_t batch = static_cast<std::size_t>(
              std::min<std::uint64_t>(config.batch_particles, my_count - first));
          if (config.real_data) {
            fill_ids(ids, w, step, first, batch);
            s.send_items(ids.data(), ids.size());
          } else {
            s.send_synthetic(batch * unit);
          }
          step_bytes += batch * unit;
        }
        if (chained) ctx[summaries].send(DumpSummary{w, step, step_bytes});
        self.process().trace_end();
        io_time[static_cast<std::size_t>(w)] +=
            util::to_seconds(self.now() - io_begin);
      }
    };

    const auto reduce_fn = [&](decouple::Context& ctx) {
      // Merge the per-dump summaries into per-writer byte totals, then
      // stream each writer its manifest (the chain's second hop).
      auto& in = ctx[summaries];
      auto& out = ctx[manifests];
      const int writers = ctx.stage_size(write_stage);
      const int producers = ctx.stage_size(compute_stage);
      std::vector<std::uint64_t> writer_bytes(static_cast<std::size_t>(writers),
                                              0);
      in.on_receive([&](const decouple::Element<DumpSummary>& el) {
        // Same block assignment the batches channel routes with (the reduce
        // stage does not hold that stream, so it uses the closed form).
        const auto writer = static_cast<std::size_t>(
            stream::Channel::block_route(el.record.worker, producers, writers));
        writer_bytes[writer] += el.record.bytes;
      });
      in.operate();
      // Resilient chains announce the grand total to every writer: crashes
      // and rejoins shift flows between writers mid-run, so per-writer
      // totals no longer bound any one writer's consumption — the dump
      // total still does.
      const std::uint64_t total =
          std::accumulate(writer_bytes.begin(), writer_bytes.end(),
                          std::uint64_t{0});
      for (int wr = 0; wr < writers; ++wr)
        out.send_to(
            wr, WriterManifest{
                    resilient ? total
                              : writer_bytes[static_cast<std::size_t>(wr)]});
    };

    const auto write_fn = [&](decouple::Context& ctx) {
      // Writeback: buffer aggressively, write rarely and big.
      auto& s = ctx[batches];
      mpi::File file(machine, s.channel().comm(), kFileName);
      // Idempotent (keyed) writeback: in resilient real-data mode each batch
      // is written at the offset its leading particle id determines, not
      // appended. A batch replayed after a writer crash — or redelivered
      // because the durability ack died with the writer — overwrites the
      // same bytes, so the dump is byte-identical to a fault-free run no
      // matter which writer flushes it, or how often.
      const bool keyed = resilient && config.real_data;
      struct Run {
        std::uint64_t offset = 0;
        std::size_t bytes = 0;
      };
      std::vector<Run> runs;  ///< keyed mode: file extents backing `buffer`
      std::vector<std::byte> buffer;
      buffer.reserve(config.real_data ? config.helper_buffer_bytes : 0);
      std::size_t buffered = 0;
      std::uint64_t consumed_bytes = 0;
      auto flush = [&] {
        if (buffered == 0) return;
        if (keyed) {
          std::size_t pos = 0;
          for (const Run& run : runs) {
            file.write_at(self, run.offset, SendBuf{buffer.data() + pos, run.bytes});
            pos += run.bytes;
          }
          runs.clear();
        } else {
          file.write_shared(self, config.real_data
                                      ? SendBuf{buffer.data(), buffer.size()}
                                      : SendBuf::synthetic(buffered));
        }
        buffer.clear();
        buffered = 0;
        // Durability point: everything consumed so far is on storage. A
        // crash after this ack replays only later batches; a crash before
        // it replays the batches whose bytes died in this writer's buffer.
        if (resilient) s.ack_durable();
      };
      s.on_receive([&](const decouple::RawElement& el) {
        if (keyed && el.data != nullptr && el.bytes >= sizeof(std::uint64_t)) {
          // Decode the deterministic fill_ids encoding of the batch's first
          // particle: worker, step, and index recover the keyed offset.
          std::uint64_t id = 0;
          std::memcpy(&id, el.data, sizeof id);
          const auto w64 = id >> 40;
          const auto step64 = (id >> 32) & 0xffu;
          const std::uint64_t first = id & 0xffffffffu;
          if (w64 >= counts.size() || first >= counts[static_cast<std::size_t>(w64)])
            throw std::runtime_error(
                "pic_io decoupled: batch id decodes outside the dump layout");
          const std::uint64_t offset =
              (step64 * units_per_step + prefix_units[static_cast<std::size_t>(w64)] +
               first) *
              unit;
          if (!runs.empty() && runs.back().offset + runs.back().bytes == offset)
            runs.back().bytes += el.bytes;  // contiguous with the previous batch
          else
            runs.push_back(Run{offset, el.bytes});
        }
        if (config.real_data && el.data) {
          const std::size_t base = buffer.size();
          buffer.resize(base + el.bytes);
          std::memcpy(buffer.data() + base, el.data, el.bytes);
        }
        buffered += el.bytes;
        consumed_bytes += el.bytes;
        if (buffered >= config.helper_buffer_bytes) flush();
      });
      // Durability-gated termination: registering the flush as the durable
      // point makes the batches stream acknowledge only at file flushes,
      // and the stream's release barrier invokes the flush right before
      // this writer's announce-ack (and before the aggregator's release
      // broadcast), so the release certifies that every batch anywhere
      // reached the file — producers hold their replay logs, in their
      // release wait and able to service failover, until then. The flush
      // must therefore happen *inside* operate(), not after it: a writer
      // past operate() could no longer consume the replays a mid-flush
      // crash of its peer would send here.
      if (resilient) s.on_durable_point(flush);
      s.operate();
      if (resilient) flush();  // safety net; normally a no-op after release
      if (chained) {
        // Completeness barrier: the reduce stage announces how many bytes
        // this writer must have seen before the data can be trusted on disk.
        std::uint64_t expected = 0;
        auto& m = ctx[manifests];
        m.on_receive([&](const decouple::Element<WriterManifest>& el) {
          expected += el.record.expected_bytes;
        });
        m.operate();
        // Plain chain: the writer saw exactly the announced bytes. Resilient
        // chain: the manifest announces the dump's grand total (flows move
        // between writers across crashes/rejoins), so the exactly-once bound
        // is one-sided — no writer may consume more than the whole dump.
        // Content itself is verified end to end by the byte-identity checks
        // in the tests.
        const bool mismatch =
            resilient ? consumed_bytes > expected : expected != consumed_bytes;
        if (mismatch)
          throw std::runtime_error(
              "pic_io decoupled: writer consumed byte count does not match "
              "the reduce stage's manifest");
      }
      flush();
    };

    if (chained)
      pipeline.run_stages({compute_fn, reduce_fn, write_fn});
    else
      pipeline.run_stages({compute_fn, write_fn});
  };

  result.seconds = util::to_seconds(machine.run(program));
  result.io_seconds = *std::max_element(io_time.begin(), io_time.end());
  result.file_bytes = machine.filesystem().open(kFileName)->size();
  if (config.real_data)
    result.file_content = machine.filesystem().open(kFileName)->content();
  return result;
}

}  // namespace ds::apps::pic
