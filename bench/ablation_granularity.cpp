// Ablation: stream-element granularity S (paper Eq. 4).
//
// Fine-grained elements pipeline better and absorb imbalance but pay
// (D/S)*o injection overhead; coarse elements amortize overhead but delay
// the consumer. The sweep shows the interior optimum the model predicts,
// and prints the Eq. 4 prediction next to the simulation.
#include <cstdio>

#include "apps/wordcount/wordcount.hpp"
#include "bench/bench_common.hpp"
#include "model/perf_model.hpp"

int main(int argc, char** argv) {
  using namespace ds;
  const auto opt = util::BenchOptions::parse(argc, argv);
  bench::print_header("Ablation — stream granularity S (Eq. 4)",
                      "MapReduce decoupled on 128 procs, block size swept "
                      "from 1 MB to 256 MB", opt);

  const int procs = std::min(128, opt.max_procs);
  util::Table table({"block_bytes", "elements", "decoupled_s"});

  for (const std::uint64_t block : {1ull << 20, 4ull << 20, 16ull << 20,
                                    32ull << 20, 64ull << 20, 256ull << 20}) {
    std::uint64_t elements = 0;
    const auto stats = bench::repeat(opt, procs, [&](int p, std::uint64_t seed) {
      apps::wordcount::WordcountConfig cfg;
      cfg.corpus.seed = seed;
      cfg.block_bytes = block;
      cfg.stride = 16;
      const auto result = apps::wordcount::run_decoupled(
          cfg, bench::beskow_like(p, seed, opt));
      elements = result.elements_streamed;
      return result.seconds;
    });
    table.add_row({std::to_string(block), std::to_string(elements),
                   util::Table::fmt_mean_std(stats.mean(), stats.stddev())});
  }
  bench::print_table(table);

  // The analytic optimum for a matching workload.
  model::TwoOpWorkload w;
  w.t_w0 = 40.0;
  w.t_w1 = 30.0;
  w.t_sigma = 4.0;
  w.alpha = 1.0 / 16.0;
  w.t_w1_decoupled = 1.5;
  w.total_data = 650e6;
  w.overhead_per_element = 1.05e-6;  // inject + send overhead
  const double best =
      model::optimal_granularity(w, 0.02, 64e3, w.total_data);
  std::printf("Eq. 4 optimal granularity for the matching workload: %.1f MB\n",
              best / 1e6);
  return 0;
}
