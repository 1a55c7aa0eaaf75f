// In-situ data analytics, decoupled (paper Fig. 1).
//
// A simulation group produces field snapshots every step; an analytics
// group consumes them on the fly (histogram + running energy), exactly the
// "call an independent data-analytics application without interfering with
// the remaining processes" pattern of Sec. II-E. The example also shows the
// Directed mapping spreading analytics load over several consumers, and
// send_modeled_to: a real typed header riding on a modeled field body.
//
// Run: ./decoupled_analytics
#include <cstdio>
#include <vector>

#include "core/decouple.hpp"
#include "mpi/rank.hpp"

using namespace ds;

namespace {
constexpr int kProcs = 12;
constexpr int kSteps = 8;
constexpr int kCellsPerRank = 512;
}  // namespace

int main() {
  mpi::MachineConfig config = mpi::MachineConfig::testbed(kProcs);
  config.engine.noise = sim::NoiseConfig::production_node();
  mpi::Machine machine(config);

  std::vector<double> step_energy(kSteps, 0.0);

  const auto makespan = machine.run([&](mpi::Rank& self) {
    struct SnapshotHeader {
      std::int32_t step;
      std::int32_t cells;
      double energy;
    };

    // One analytics process per 4 simulation processes; each simulation
    // process rotates its snapshots over all of them.
    decouple::StreamOptions options;
    options.mapping = decouple::Mapping::Directed;
    auto pipeline = decouple::Pipeline::over(self, self.world()).with_stride(4);
    auto snapshots = pipeline.stream<SnapshotHeader>(
        kCellsPerRank * sizeof(double), options);

    pipeline.run(
        [&](decouple::Context& ctx) {  // simulation group
          auto& s = ctx[snapshots];
          std::vector<double> field(kCellsPerRank, 1.0);
          for (int step = 0; step < kSteps; ++step) {
            // Simulate: advance the field (virtual compute + real math).
            self.compute(util::milliseconds(3), "sim");
            double energy = 0;
            for (auto& v : field) {
              v = 0.99 * v + 0.01 * self.process().rng().next_double();
              energy += v * v;
            }
            // Stream the snapshot: real header, modeled field body.
            s.send_modeled_to(
                (s.producer_index() + step) % s.channel().consumer_count(),
                SnapshotHeader{step, kCellsPerRank, energy},
                kCellsPerRank * sizeof(double));
          }
        },
        [&](decouple::Context& ctx) {  // analytics group
          auto& s = ctx[snapshots];
          s.on_receive([&](const decouple::Element<SnapshotHeader>& el) {
            self.compute(util::microseconds(200), "ana");  // histogramming etc.
            step_energy[static_cast<std::size_t>(el.record.step)] +=
                el.record.energy;
          });
          const auto consumed = s.operate();
          std::printf("analyst rank %d consumed %llu snapshots\n",
                      self.world_rank(),
                      static_cast<unsigned long long>(consumed));
        });
  });

  std::printf("\nper-step total field energy (gathered in situ):\n");
  for (int s = 0; s < kSteps; ++s)
    std::printf("  step %d: %.2f\n", s, step_energy[static_cast<std::size_t>(s)]);
  std::printf("virtual makespan: %.3f ms\n", util::to_seconds(makespan) * 1e3);
  return 0;
}
