// Topology sweep (machine-model extension): the fig. 3 execution-model
// comparison re-run across the pluggable topologies (flat, two-level,
// fat-tree, dragonfly), plus a congestion scenario that shrinks the
// bisection and watches placement start to matter.
//
// Two scenario families, both virtual-time deterministic (no noise, fixed
// seed — the JSON is byte-stable across machines and gated in CI by
// tools/check_bench_regression.py):
//
//  * model_<topo>: 64 ranks, 8 per node. Conventional staged execution vs
//    the decoupled pipeline placed with with_node_placement(1) (one helper
//    on every node, co-located with its producers). Decoupling must win on
//    every topology.
//
//  * congestion_<topo>_taper<t>: the same streaming workload under two
//    placements — all helpers packed on the last node (every element
//    crosses the shared fabric into one node's down-link) vs node-aware
//    helpers (every element stays on its producer's node). The advantage
//    ratio remote/local must grow as the contended tier's bandwidth is
//    tapered: that widening gap is the paper's exascale argument for
//    decoupling with placement, made concrete per topology.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/decouple.hpp"
#include "mpi/rank.hpp"

namespace {

using namespace ds;

constexpr int kWorld = 64;
constexpr int kRanksPerNode = 8;

util::BenchOptions g_opt;

/// Aries-like costs with the named topology and taper plugged in, 8 ranks
/// per node so the 64-rank world spans 8 nodes. Noise stays off: every
/// number this bench emits is a pure function of the config.
mpi::MachineConfig topo_machine(const std::string& topology, double taper,
                                std::uint64_t seed) {
  util::BenchOptions model = g_opt;
  model.topology = topology;
  model.taper = taper;
  mpi::MachineConfig config;
  config.world_size = kWorld;
  config.network = bench::machine_model(model);
  config.network.ranks_per_node = kRanksPerNode;
  config.engine.seed = seed;
  config.engine.stack_bytes = 64 * 1024;
  return config;
}

// ---------------------------------------------------------------------------
// model_<topo>: conventional vs node-placed decoupled, fig. 3 workload.
// ---------------------------------------------------------------------------

constexpr util::SimTime kModelOp0 = util::milliseconds(10);
constexpr util::SimTime kModelOp1 = util::milliseconds(4);
constexpr std::size_t kModelBytes = 64 * 1024;

struct ModelResult {
  double conventional_s = 0.0;
  double decoupled_s = 0.0;
};

ModelResult run_model(const std::string& topology, int rounds) {
  ModelResult result;
  {
    mpi::Machine machine(topo_machine(topology, 1.0, 7));
    const auto makespan = machine.run([&](mpi::Rank& self) {
      for (int r = 0; r < rounds; ++r) {
        self.compute(kModelOp0, "op0");
        self.reduce(self.world(), 0, mpi::SendBuf::synthetic(kModelBytes),
                    nullptr, {});
        self.compute(kModelOp1, "op1");
        self.barrier(self.world());
      }
    });
    result.conventional_s = util::to_seconds(makespan);
  }
  {
    mpi::Machine machine(topo_machine(topology, 1.0, 7));
    const auto makespan = machine.run([&](mpi::Rank& self) {
      auto pipeline = decouple::Pipeline::over(self, self.world())
                          .with_node_placement(1);
      auto op1 = pipeline.raw_stream(kModelBytes);
      pipeline.run(
          [&](decouple::Context& ctx) {
            auto& s = ctx[op1];
            // Workers absorb the helpers' share of op0 (fig. 3 scaling).
            const auto scaled = kModelOp0 * ctx.parent().size() /
                                std::max(1, ctx.worker_count());
            for (int r = 0; r < rounds; ++r) {
              self.compute(scaled, "op0");
              s.send_synthetic(kModelBytes);
            }
          },
          [&](decouple::Context& ctx) {
            auto& s = ctx[op1];
            const int per_helper = std::max(
                1, ctx.worker_count() / std::max(1, ctx.helper_count()));
            s.on_receive([&](const decouple::RawElement&) {
              self.compute(kModelOp1 / per_helper, "op1");
            });
            (void)s.operate();
          });
    });
    result.decoupled_s = util::to_seconds(makespan);
  }
  return result;
}

// ---------------------------------------------------------------------------
// congestion_<topo>_taper<t>: helper placement vs shrinking bisection.
// ---------------------------------------------------------------------------

constexpr util::SimTime kCongOp0 = util::milliseconds(2);
constexpr util::SimTime kCongOp1 = util::microseconds(100);
constexpr std::size_t kCongBytes = 256 * 1024;

/// One streaming run: 56 workers push `rounds` elements of 256 KiB each to
/// 8 helpers. `node_aware` places one helper per node (with_node_placement);
/// otherwise all 8 helpers are the last node's ranks, so every element
/// funnels through the shared fabric into that node.
double run_congestion(const std::string& topology, double taper,
                      bool node_aware, int rounds) {
  mpi::Machine machine(topo_machine(topology, taper, 13));
  const auto makespan = machine.run([&](mpi::Rank& self) {
    auto pipeline = decouple::Pipeline::over(self, self.world());
    if (node_aware) {
      pipeline.with_node_placement(1);
    } else {
      std::vector<int> last_node;
      for (int r = kWorld - kRanksPerNode; r < kWorld; ++r)
        last_node.push_back(r);
      pipeline.with_helper_ranks(std::move(last_node));
    }
    auto data = pipeline.raw_stream(kCongBytes);
    pipeline.run(
        [&](decouple::Context& ctx) {
          auto& s = ctx[data];
          for (int r = 0; r < rounds; ++r) {
            self.compute(kCongOp0, "op0");
            s.send_synthetic(kCongBytes);
          }
        },
        [&](decouple::Context& ctx) {
          auto& s = ctx[data];
          s.on_receive(
              [&](const decouple::RawElement&) { self.compute(kCongOp1, "op1"); });
          (void)s.operate();
        });
  });
  return util::to_seconds(makespan);
}

[[nodiscard]] std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  g_opt = util::BenchOptions::parse(argc, argv);
  bench::print_header(
      "topology_sweep — machine model x execution model",
      "fig. 3 model across flat/twolevel/fattree/dragonfly, plus "
      "decoupled placement advantage vs bisection taper",
      g_opt);

  const std::vector<std::string> topologies = {"flat", "twolevel", "fattree",
                                               "dragonfly"};
  const std::vector<double> tapers =
      g_opt.fast ? std::vector<double>{1.0, 4.0}
                 : std::vector<double>{1.0, 2.0, 4.0};
  const int model_rounds = g_opt.fast ? 4 : 6;
  const int cong_rounds = g_opt.fast ? 6 : 8;

  bool ok = true;
  std::string json = "{\"bench\":\"topology_sweep\",\"scenarios\":[";
  bool first = true;
  const auto emit = [&](const std::string& entry) {
    json += (first ? "" : ",") + entry;
    first = false;
  };

  // --- model family -------------------------------------------------------
  util::Table model_table({"topology", "conventional_s", "decoupled_s",
                           "speedup"});
  for (const auto& topo : topologies) {
    const ModelResult m = run_model(topo, model_rounds);
    const double speedup = m.conventional_s / m.decoupled_s;
    ok &= m.decoupled_s < m.conventional_s;
    model_table.add_row({topo, fmt(m.conventional_s), fmt(m.decoupled_s),
                         fmt(speedup)});
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "{\"name\":\"model_%s\",\"conventional_s\":%.9g,"
                  "\"decoupled_s\":%.9g,\"speedup\":%.9g}",
                  topo.c_str(), m.conventional_s, m.decoupled_s, speedup);
    emit(entry);
  }
  std::printf("fig. 3 model, 64 ranks (8/node), node-placed helpers:\n");
  bench::print_table(model_table);

  // --- congestion family --------------------------------------------------
  util::Table cong_table(
      {"topology", "taper", "remote_s", "local_s", "advantage"});
  // Flat has no shared links: one taper as the control row (placement must
  // not matter much when the fabric has full bisection everywhere).
  {
    const double remote = run_congestion("flat", 1.0, false, cong_rounds);
    const double local = run_congestion("flat", 1.0, true, cong_rounds);
    const double advantage = remote / local;
    ok &= advantage > 0.0;
    cong_table.add_row({"flat", "1", fmt(remote), fmt(local), fmt(advantage)});
    char entry[256];
    std::snprintf(entry, sizeof entry,
                  "{\"name\":\"congestion_flat_taper1\",\"remote_s\":%.9g,"
                  "\"local_s\":%.9g,\"advantage\":%.9g}",
                  remote, local, advantage);
    emit(entry);
  }
  for (const auto& topo : topologies) {
    if (topo == "flat") continue;
    std::vector<double> advantages;
    for (const double taper : tapers) {
      const double remote = run_congestion(topo, taper, false, cong_rounds);
      const double local = run_congestion(topo, taper, true, cong_rounds);
      const double advantage = remote / local;
      advantages.push_back(advantage);
      cong_table.add_row({topo, fmt(taper), fmt(remote), fmt(local),
                          fmt(advantage)});
      char entry[288];
      std::snprintf(entry, sizeof entry,
                    "{\"name\":\"congestion_%s_taper%g\",\"remote_s\":%.9g,"
                    "\"local_s\":%.9g,\"advantage\":%.9g}",
                    topo.c_str(), taper, remote, local, advantage);
      emit(entry);
    }
    // The acceptance gate: decoupling-with-placement must matter MORE as
    // bisection shrinks — weakly monotone advantage (2% slack), and a >= 5%
    // widening from full bisection to the strongest taper.
    for (std::size_t i = 1; i < advantages.size(); ++i)
      ok &= advantages[i] >= advantages[i - 1] * 0.98;
    ok &= advantages.back() >= advantages.front() * 1.05;
  }
  std::printf("placement advantage (remote helpers / node-aware helpers):\n");
  bench::print_table(cong_table);

  json += "]}\n";
  const std::string json_path =
      util::env_string("DS_BENCH_JSON", "BENCH_topology.json");
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("JSON written to %s\n", json_path.c_str());
  } else {
    std::printf("WARNING: could not write %s\n", json_path.c_str());
    ok = false;
  }

  std::printf("topology sweep checks: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
