// Micro-benchmark of the collective algorithms' *virtual* cost scaling —
// the mechanism behind "collective operations significantly impact
// scalability because their complexities increase with the number of
// processes" (paper Sec. I). Reported as google-benchmark counters: virtual
// microseconds per collective at each communicator size.
#include <benchmark/benchmark.h>

#include "mpi/rank.hpp"

namespace {

using namespace ds;

template <typename Op>
void run_collective(benchmark::State& state, Op&& op, std::size_t bytes) {
  const int procs = static_cast<int>(state.range(0));
  double virtual_us = 0.0;
  for (auto _ : state) {
    mpi::Machine machine(mpi::MachineConfig::testbed(procs));
    const auto makespan = machine.run(
        [&](mpi::Rank& self) { op(self, bytes); });
    virtual_us = util::to_seconds(makespan) * 1e6;
    benchmark::DoNotOptimize(virtual_us);
  }
  state.counters["virtual_us"] = virtual_us;
  state.counters["procs"] = procs;
}

void BM_VirtualBarrier(benchmark::State& state) {
  run_collective(state, [](mpi::Rank& self, std::size_t) {
    self.barrier(self.world());
  }, 0);
}
BENCHMARK(BM_VirtualBarrier)->RangeMultiplier(4)->Range(8, 2048);

void BM_VirtualReduce64K(benchmark::State& state) {
  run_collective(state, [](mpi::Rank& self, std::size_t bytes) {
    self.reduce(self.world(), 0, mpi::SendBuf::synthetic(bytes), nullptr, {});
  }, 64 * 1024);
}
BENCHMARK(BM_VirtualReduce64K)->RangeMultiplier(4)->Range(8, 2048);

void BM_VirtualAllgatherv4K(benchmark::State& state) {
  run_collective(state, [](mpi::Rank& self, std::size_t bytes) {
    const std::vector<std::size_t> counts(
        static_cast<std::size_t>(self.world().size()), bytes);
    self.allgatherv(self.world(), mpi::SendBuf::synthetic(bytes), nullptr,
                    counts);
  }, 4 * 1024);
}
BENCHMARK(BM_VirtualAllgatherv4K)->RangeMultiplier(4)->Range(8, 2048);

}  // namespace

BENCHMARK_MAIN();
