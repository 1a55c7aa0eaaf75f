// Workload configurations, the timed application runs, and the small
// real-data correctness checks of the repo benchmark. The configurations
// are the figure benches' (Figs. 5-8) at the world sizes BENCHMARK.json
// names; the oracle instances use the shapes the app tests validate.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "apps/cg/cg_app.hpp"
#include "apps/cg/cg_solver.hpp"
#include "apps/pic/pic_io.hpp"
#include "apps/wordcount/wordcount.hpp"
#include "common.hpp"
#include "core/group_plan.hpp"

namespace perfbench {
namespace {

namespace cg = ds::apps::cg;
namespace pic = ds::apps::pic;
namespace wc = ds::apps::wordcount;

/// Real-data oracle instances: 8 ranks, one helper per 4.
constexpr int kOracleProcs = 8;
constexpr int kOracleStride = 4;

wc::WordcountConfig mapreduce_config(std::uint64_t seed) {
  wc::WordcountConfig config;
  config.corpus.seed = seed;
  config.stride = kStride;
  return config;
}

cg::CgConfig cg_config() {
  cg::CgConfig config;
  config.n = 120;
  config.iterations = 6;
  config.stride = kStride;
  return config;
}

pic::PicIoConfig pic_io_config(std::uint64_t seed) {
  pic::PicIoConfig config;
  config.particles_per_rank = 250'000;
  config.steps = 3;
  config.stride = kStride;
  config.batch_particles = 16'384;
  config.ns_mover_per_particle = 400.0;
  config.seed = seed;
  return config;
}

/// World rank of writeback writer `index` under the interleaved split.
int writer_rank(int procs, int stride, int index) {
  const ds::mpi::Comm world(0, ds::mpi::Group::world(procs));
  return ds::stream::GroupPlan::interleaved(world, stride)
      .helpers()
      .at(static_cast<std::size_t>(index));
}

/// Times the run_* call `fn` alone: host wall and CPU seconds.
template <typename Fn>
auto timed(VariantRun& out, Fn&& fn) {
  const double wall0 = wall_s();
  const double cpu0 = cpu_s();
  auto result = fn();
  out.host_s = wall_s() - wall0;
  out.cpu_s = cpu_s() - cpu0;
  return result;
}

/// Expected bytes of a modeled pic_io dump: every particle, every step.
std::uint64_t dump_bytes(const pic::PicIoConfig& config, int procs) {
  return config.particles_per_rank * static_cast<std::uint64_t>(procs) *
         static_cast<std::uint64_t>(config.steps) * config.particle_bytes;
}

std::vector<std::uint64_t> sorted_ids(const std::vector<std::byte>& content) {
  std::vector<std::uint64_t> ids(content.size() / sizeof(std::uint64_t));
  if (!ids.empty())
    std::memcpy(ids.data(), content.data(), ids.size() * sizeof(std::uint64_t));
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// The particle ids a real-data dump must hold, as a sorted multiset: the
/// writers' id formula (rank << 40 ^ step << 32 ^ index) over the modeled
/// per-rank counts of `compute_ranks` ranks.
std::vector<std::uint64_t> dump_oracle(const pic::PicIoConfig& config,
                                       int procs, int compute_ranks) {
  const auto counts = pic::modeled_rank_counts(
      pic::domain_of(compute_ranks),
      config.particles_per_rank * static_cast<std::uint64_t>(procs));
  std::vector<std::uint64_t> ids;
  for (int rank = 0; rank < compute_ranks; ++rank)
    for (int step = 0; step < config.steps; ++step)
      for (std::uint64_t i = 0; i < counts[static_cast<std::size_t>(rank)]; ++i)
        ids.push_back((static_cast<std::uint64_t>(rank) << 40) ^
                      (static_cast<std::uint64_t>(step) << 32) ^ i);
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool matches_oracle(const cg::CgResult& result,
                    const cg::SequentialCgResult& oracle) {
  if (result.pieces.empty()) return false;
  for (const auto& piece : result.pieces)
    for (int i = 0; i < piece.grid.nx(); ++i)
      for (int j = 0; j < piece.grid.ny(); ++j)
        for (int k = 0; k < piece.grid.nz(); ++k) {
          const double expected = oracle.x.at(
              piece.offset[0] + i, piece.offset[1] + j, piece.offset[2] + k);
          if (std::abs(piece.grid.at(i, j, k) - expected) > 1e-9) return false;
        }
  return true;
}

Checks wordcount_checks(std::uint64_t seed, bool perturb) {
  wc::WordcountConfig config;
  config.corpus.files_per_rank = 2;
  config.corpus.min_file_bytes = 1 << 20;
  config.corpus.max_file_bytes = 4 << 20;
  config.corpus.seed = seed;
  config.block_bytes = 1 << 20;
  config.real_data = true;
  config.words_per_block_real = 300;
  config.stride = kOracleStride;
  auto oracle = wc::sequential_histogram(config, kOracleProcs);
  if (perturb) oracle.at(0) += 1;
  const auto machine = beskow_like(kOracleProcs, seed);
  return {{"wordcount.reference_matches_oracle",
           wc::run_reference(config, machine).histogram == oracle},
          {"wordcount.decoupled_matches_oracle",
           wc::run_decoupled(config, machine).histogram == oracle}};
}

Checks cg_checks(std::uint64_t seed, bool perturb) {
  constexpr std::array<int, 3> kGrid{6, 4, 4};
  cg::CgConfig config;
  config.real_data = true;
  config.global_grid = kGrid;
  config.iterations = 8;
  config.stride = kOracleStride;
  config.n = 4;
  auto oracle =
      cg::solve_sequential(kGrid[0], kGrid[1], kGrid[2], config.iterations);
  if (perturb) oracle.x.at(0, 0, 0) += 1.0;
  const auto machine = beskow_like(kOracleProcs, seed);
  return {{"cg.blocking_matches_oracle",
           matches_oracle(cg::run_cg(cg::HaloVariant::Blocking, config, machine),
                          oracle)},
          {"cg.decoupled_matches_oracle",
           matches_oracle(cg::run_cg(cg::HaloVariant::Decoupled, config, machine),
                          oracle)}};
}

Checks pic_checks(std::uint64_t seed, bool perturb) {
  pic::PicConfig config;
  config.real_data = true;
  config.particles_per_rank = 120;
  config.steps = 4;
  config.dt = 0.07;
  config.stride = kOracleStride;
  config.seed = seed;
  Checks out;
  for (const auto variant :
       {pic::ExchangeVariant::Reference, pic::ExchangeVariant::Decoupled}) {
    const auto result =
        pic::run_pic(variant, config, beskow_like(kOracleProcs, seed));
    const pic::Domain domain =
        pic::domain_of(pic::compute_ranks_of(variant, config, kOracleProcs));
    auto expected = pic::oracle_advance(
        domain,
        pic::initialize_particles(
            domain, config.particles_per_rank * kOracleProcs, config.seed),
        config.steps, config.dt);
    if (perturb) {
      const auto list = std::find_if(expected.begin(), expected.end(),
                                     [](const auto& l) { return !l.empty(); });
      if (list != expected.end()) list->pop_back();
    }
    bool ok = result.final_particles.size() == expected.size();
    for (std::size_t r = 0; ok && r < expected.size(); ++r)
      ok = result.final_particles[r].size() == expected[r].size() &&
           pic::particle_signature(result.final_particles[r]) ==
               pic::particle_signature(expected[r]);
    out.emplace_back(variant == pic::ExchangeVariant::Reference
                         ? "pic.reference_matches_oracle"
                         : "pic.decoupled_matches_oracle",
                     ok);
  }
  return out;
}

Checks pic_io_checks(std::uint64_t seed, bool perturb) {
  pic::PicIoConfig config;
  config.real_data = true;
  config.particles_per_rank = 60;
  config.steps = 4;
  config.stride = kOracleStride;
  config.batch_particles = 16;
  config.seed = seed;
  const auto machine = beskow_like(kOracleProcs, seed);
  const auto collective =
      pic::run_pic_io(pic::IoVariant::Collective, config, machine);

  config.checkpoint_interval = kCheckpointInterval;
  const auto clean = pic::run_pic_io(pic::IoVariant::Decoupled, config, machine);
  auto faulty_machine = machine;
  faulty_machine.faults.crash(writer_rank(kOracleProcs, config.stride, 1),
                              ds::util::from_seconds(clean.seconds / 3.0));
  const auto faulty =
      pic::run_pic_io(pic::IoVariant::Decoupled, config, faulty_machine);

  // Every rank computes under the collective path; the decoupled chain
  // computes on the workers minus the one its reduce stage takes.
  const ds::mpi::Comm world(0, ds::mpi::Group::world(kOracleProcs));
  const int chain_compute =
      ds::stream::GroupPlan::interleaved(world, config.stride).worker_count() - 1;
  auto collective_oracle = dump_oracle(config, kOracleProcs, kOracleProcs);
  if (perturb) collective_oracle.back() += 1;
  const auto clean_ids = sorted_ids(clean.file_content);
  return {{"pic_io.collective_matches_oracle",
           sorted_ids(collective.file_content) == collective_oracle},
          {"pic_io.decoupled_matches_oracle",
           clean_ids == dump_oracle(config, kOracleProcs, chain_compute)},
          {"pic_io.collective_bytes_match_decoupled",
           collective.file_bytes == clean.file_bytes},
          {"pic_io.crash_matches_fault_free",
           faulty.file_bytes == clean.file_bytes &&
               sorted_ids(faulty.file_content) == clean_ids}};
}

}  // namespace

VariantRun run_variant(Workload workload, bool decoupled, int procs,
                       std::uint64_t seed, ds::util::SimTime crash_at) {
  VariantRun out;
  auto machine = beskow_like(procs, seed);
  switch (workload) {
    case Workload::MapReduce: {
      const auto config = mapreduce_config(seed);
      const auto result = timed(out, [&] {
        return decoupled ? wc::run_decoupled(config, machine)
                         : wc::run_reference(config, machine);
      });
      out.vt_s = result.seconds;
      if (decoupled) {
        // One stream element per map block.
        const wc::Corpus corpus(config.corpus, procs);
        std::uint64_t blocks = 0;
        for (int f = 0; f < corpus.file_count(); ++f)
          blocks += wc::blocks_of(config, corpus.file_bytes(f));
        out.invariants.emplace_back("wordcount.elements_streamed",
                                    result.elements_streamed == blocks);
      }
      break;
    }
    case Workload::PicExchange: {
      const auto config = pic_exchange_config(seed);
      const auto result = timed(out, [&] {
        return pic::run_pic(decoupled ? pic::ExchangeVariant::Decoupled
                                      : pic::ExchangeVariant::Reference,
                            config, machine);
      });
      out.vt_s = result.seconds;
      out.invariants.emplace_back(
          "pic.particles_conserved",
          result.total_particles_end ==
              config.particles_per_rank * static_cast<std::uint64_t>(procs));
      break;
    }
    case Workload::CgHalo: {
      const auto config = cg_config();
      const auto result = timed(out, [&] {
        return cg::run_cg(decoupled ? cg::HaloVariant::Decoupled
                                    : cg::HaloVariant::Blocking,
                          config, machine);
      });
      out.vt_s = result.seconds;
      out.invariants.emplace_back(
          "cg.makespan_finite", std::isfinite(result.seconds) && result.seconds > 0);
      break;
    }
    case Workload::PicIoResilient: {
      auto config = pic_io_config(seed);
      if (decoupled) {
        config.checkpoint_interval = kCheckpointInterval;
        if (crash_at > 0)
          machine.faults.crash(writer_rank(procs, config.stride, 1), crash_at);
      }
      const auto result = timed(out, [&] {
        return pic::run_pic_io(decoupled ? pic::IoVariant::Decoupled
                                         : pic::IoVariant::Collective,
                               config, machine);
      });
      out.vt_s = result.seconds;
      out.file_bytes = result.file_bytes;
      out.invariants.emplace_back("pic_io.file_bytes",
                                  result.file_bytes == dump_bytes(config, procs));
      break;
    }
  }
  return out;
}

VariantRun run_fault_free_io(int procs, std::uint64_t seed) {
  return run_variant(Workload::PicIoResilient, true, procs, seed, 0);
}

Checks run_oracle_checks(Workload workload, std::uint64_t seed, bool perturb) {
  switch (workload) {
    case Workload::MapReduce: return wordcount_checks(seed, perturb);
    case Workload::PicExchange: return pic_checks(seed, perturb);
    case Workload::CgHalo: return cg_checks(seed, perturb);
    case Workload::PicIoResilient: return pic_io_checks(seed, perturb);
  }
  throw std::logic_error("unhandled workload");
}

}  // namespace perfbench
