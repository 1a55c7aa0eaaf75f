// Figure 3: the conceptual comparison of the three execution models —
// conventional staged, nonblocking, decoupled — realized both analytically
// (Eqs. 1-4) and as a simulated synthetic two-operation application on four
// ranks, printing the same three timelines the paper sketches.
//
// It also writes BENCH_fig3.json (DS_BENCH_JSON overrides the path): the
// three simulated makespans and the Eq. 1, 2 and 4 values. Both are
// deterministic per seed, so CI gates the JSON in virtual time against
// bench/baselines/BENCH_fig3.json with tools/check_bench_regression.py.
#include <cstdio>
#include <string>

#include "bench/bench_common.hpp"
#include "core/decouple.hpp"
#include "model/perf_model.hpp"
#include "mpi/rank.hpp"

namespace {

using namespace ds;

constexpr int kRanks = 4;
constexpr int kRounds = 6;
constexpr util::SimTime kOp0 = util::milliseconds(10);   // red: computation
constexpr util::SimTime kOp1 = util::milliseconds(4);    // blue: second op
constexpr std::size_t kOp1Bytes = 64 * 1024;

util::BenchOptions g_opt;  ///< machine-model sweep (--topology= etc.)

mpi::MachineConfig machine_config(std::uint64_t seed) {
  mpi::MachineConfig cfg = bench::beskow_like(kRanks, seed, g_opt);
  cfg.engine.noise = sim::NoiseConfig{0.25, 50.0, util::microseconds(600)};
  cfg.observability.trace = true;
  return cfg;
}

/// (a) conventional: both operations staged on all ranks, synchronized.
double conventional(std::string* trace) {
  mpi::Machine machine(machine_config(7));
  const auto makespan = machine.run([&](mpi::Rank& self) {
    for (int r = 0; r < kRounds; ++r) {
      self.compute(kOp0, "red");
      self.process().trace_begin("blue");
      self.reduce(self.world(), 0, mpi::SendBuf::synthetic(kOp1Bytes), nullptr, {});
      self.process().trace_end();
      self.compute(kOp1, "blue");
      self.barrier(self.world());
    }
  });
  if (auto* t = machine.engine().trace()) *trace = t->to_ascii(72);
  return util::to_seconds(makespan);
}

/// (b) nonblocking: Op1's communication overlaps Op0, but both operations
/// still run on every rank.
double nonblocking(std::string* trace) {
  mpi::Machine machine(machine_config(7));
  const auto makespan = machine.run([&](mpi::Rank& self) {
    for (int r = 0; r < kRounds; ++r) {
      const mpi::Request req = self.ireduce(
          self.world(), 0, mpi::SendBuf::synthetic(kOp1Bytes), nullptr, {});
      self.compute(kOp0, "red");
      self.wait(req);
      self.compute(kOp1, "blue");
    }
  });
  if (auto* t = machine.engine().trace()) *trace = t->to_ascii(72);
  return util::to_seconds(makespan);
}

/// (c) decoupled: Op1 moves to rank 3; ranks 0-2 stream to it and keep
/// computing without any synchronization.
double decoupled(std::string* trace) {
  mpi::Machine machine(machine_config(7));
  const auto makespan = machine.run([&](mpi::Rank& self) {
    auto pipeline = decouple::Pipeline::over(self, self.world())
                        .with_helper_ranks({kRanks - 1});
    auto op1 = pipeline.raw_stream(kOp1Bytes);
    pipeline.run(
        [&](decouple::Context& ctx) {
          auto& s = ctx[op1];
          for (int r = 0; r < kRounds; ++r) {
            // Workers carry Op0 scaled by 1/(1-alpha).
            self.compute(kOp0 * kRanks / (kRanks - 1), "red");
            s.send_synthetic(kOp1Bytes);
          }
        },
        [&](decouple::Context& ctx) {
          auto& s = ctx[op1];
          s.on_receive([&](const decouple::RawElement&) {
            self.compute(kOp1 / (kRanks - 1), "blue");
          });
          (void)s.operate();
        });
  });
  if (auto* t = machine.engine().trace()) *trace = t->to_ascii(72);
  return util::to_seconds(makespan);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ds;
  g_opt = util::BenchOptions::parse(argc, argv);
  bench::print_header("Fig. 3 — execution-model comparison",
                      "conventional vs nonblocking vs decoupled, 4 ranks; "
                      "'r' = Op0, 'b' = Op1, '.' = idle",
                      g_opt);

  std::string trace;
  const double conv = conventional(&trace);
  std::printf("(a) conventional  %.3fs\n%s\n", conv, trace.c_str());
  const double nbc = nonblocking(&trace);
  std::printf("(b) nonblocking   %.3fs\n%s\n", nbc, trace.c_str());
  const double dec = decoupled(&trace);
  std::printf("(c) decoupled     %.3fs\n%s\n", dec, trace.c_str());

  // The analytic model (Eqs. 1-4) for the same workload.
  model::TwoOpWorkload w;
  w.t_w0 = util::to_seconds(kOp0) * kRounds;
  w.t_w1 = util::to_seconds(kOp1) * kRounds;
  w.t_sigma = 0.25 * w.t_w0 / 3.0;  // rough E[max-mean] for 4 jittered ranks
  w.alpha = 1.0 / kRanks;
  w.beta = 0.05;
  w.t_w1_decoupled = util::to_seconds(kOp1) * kRounds / kRanks;
  w.total_data = static_cast<double>(kOp1Bytes) * kRounds * (kRanks - 1);
  w.granularity = static_cast<double>(kOp1Bytes);
  w.overhead_per_element = 150e-9;
  const double eq1 = model::conventional_time(w);
  const double eq2 = model::decoupled_time_ideal(w);
  const double eq4 = model::decoupled_time_full(w);
  std::printf("Analytic model: Eq.1 conventional %.3fs | Eq.2 ideal %.3fs | "
              "Eq.4 full %.3fs | predicted speedup %.2fx\n",
              eq1, eq2, eq4, model::predicted_speedup(w));
  std::printf("Simulated:      conventional %.3fs | nonblocking %.3fs | "
              "decoupled %.3fs | speedup %.2fx\n",
              conv, nbc, dec, conv / dec);

  char json[512];
  std::snprintf(json, sizeof json,
                "{\"bench\":\"fig3_model\",\"scenarios\":["
                "{\"name\":\"simulated\",\"conventional_s\":%.9g,"
                "\"nonblocking_s\":%.9g,\"decoupled_s\":%.9g},"
                "{\"name\":\"model\",\"eq1_conventional_s\":%.9g,"
                "\"eq2_decoupled_ideal_s\":%.9g,\"eq4_decoupled_full_s\":%.9g}"
                "]}\n",
                conv, nbc, dec, eq1, eq2, eq4);
  const std::string json_path =
      util::env_string("DS_BENCH_JSON", "BENCH_fig3.json");
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "fig3_model: could not write %s\n", json_path.c_str());
    return 1;
  }
  std::fputs(json, f);
  std::fclose(f);
  return 0;
}
