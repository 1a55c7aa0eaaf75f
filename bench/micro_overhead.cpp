// Micro-benchmarks of the simulator substrate itself (host wall-clock, via
// google-benchmark): fiber context switches, event queue throughput, and
// the end-to-end cost of simulating one stream element — the practical
// limits on how large a virtual machine this laptop-scale simulator can
// sweep.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "core/decouple.hpp"
#include "mpi/ops.hpp"
#include "mpi/rank.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"

namespace {

using namespace ds;

void BM_FiberSwitch(benchmark::State& state) {
  sim::Fiber fiber([] {
    while (true) sim::Fiber::yield();
  });
  for (auto _ : state) fiber.resume();
}
BENCHMARK(BM_FiberSwitch);

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue queue;
  util::SimTime t = 0;
  for (auto _ : state) {
    queue.push(++t, [] {});
    if (queue.size() > 1024) benchmark::DoNotOptimize(queue.pop());
  }
}
BENCHMARK(BM_EventQueuePushPop);

/// The same queue traffic with callbacks shaped like the simulator's: each
/// captures a pointer and an op handle (16 bytes), plus `kPadWords` words of
/// schedule data (48 bytes at 4). A capture-free lambda relocates nothing,
/// so only these time what moving a callback costs on push and pop.
template <int kPadWords>
void BM_EventQueuePushPopCapturing(benchmark::State& state) {
  mpi::detail::OpPool<mpi::detail::SendOp> pool;  // outlives the queue
  const auto op = pool.acquire();
  sim::EventQueue queue;
  std::uint64_t sink = 0;
  util::SimTime t = 0;
  for (auto _ : state) {
    if constexpr (kPadWords == 0) {
      queue.push(++t, [sink = &sink, op] { *sink += op->refs; });
    } else {
      const std::array<std::uint64_t, kPadWords> pad{};
      queue.push(++t, [sink = &sink, op, pad] { *sink += op->refs + pad[0]; });
    }
    if (queue.size() > 1024) benchmark::DoNotOptimize(queue.pop());
  }
}
BENCHMARK_TEMPLATE(BM_EventQueuePushPopCapturing, 0);
BENCHMARK_TEMPLATE(BM_EventQueuePushPopCapturing, 4);

void BM_EngineSelfWake(benchmark::State& state) {
  // One advance() = schedule + fiber switch out + event dispatch + switch in.
  const std::int64_t steps = state.range(0);
  for (auto _ : state) {
    sim::Engine engine;
    engine.spawn([steps](sim::Process& p) {
      for (std::int64_t i = 0; i < steps; ++i) p.advance(1);
    });
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * steps);
}
BENCHMARK(BM_EngineSelfWake)->Arg(10000);

void BM_SimulatedP2PMessage(benchmark::State& state) {
  const std::int64_t messages = state.range(0);
  for (auto _ : state) {
    mpi::Machine machine(mpi::MachineConfig::testbed(2));
    machine.run([messages](mpi::Rank& self) {
      if (self.world_rank() == 0) {
        for (std::int64_t i = 0; i < messages; ++i)
          self.send(self.world(), 1, 0, mpi::SendBuf::synthetic(64));
      } else {
        for (std::int64_t i = 0; i < messages; ++i)
          (void)self.recv(self.world(), 0, 0, mpi::RecvBuf::discard(64));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * messages);
}
BENCHMARK(BM_SimulatedP2PMessage)->Arg(5000);

/// Mailbox matching with a rank receiving on `contexts` communicators at
/// once: the sender round-robins messages over them and the receiver drains
/// them in the same order, so each receive post and each arrival (deposit)
/// matches inside its own context's queues. The communicators are built
/// locally from derived contexts, so the timing holds no set-up collective.
void BM_MailboxMatchingAcrossContexts(benchmark::State& state) {
  const auto contexts = static_cast<int>(state.range(0));
  constexpr std::int64_t kMessages = 4096;
  for (auto _ : state) {
    mpi::Machine machine(mpi::MachineConfig::testbed(2));
    machine.run([contexts](mpi::Rank& self) {
      std::vector<mpi::Comm> comms;
      for (int c = 0; c < contexts; ++c)
        comms.emplace_back(mpi::Machine::derive_context(
                               self.world().context(), 0xBE7C4ull,
                               static_cast<std::uint64_t>(c)),
                           self.world().group());
      for (std::int64_t i = 0; i < kMessages; ++i) {
        const mpi::Comm& comm = comms[static_cast<std::size_t>(i % contexts)];
        if (self.world_rank() == 0)
          self.send(comm, 1, 0, mpi::SendBuf::synthetic(64));
        else
          (void)self.recv(comm, 0, 0, mpi::RecvBuf::discard(64));
      }
    });
  }
  state.SetItemsProcessed(state.iterations() * kMessages);
}
BENCHMARK(BM_MailboxMatchingAcrossContexts)->Arg(1)->Arg(8)->Arg(64);

void BM_SimulatedStreamElement(benchmark::State& state) {
  // Host cost per simulated MPIStream element: producer inject -> fabric ->
  // consumer operate. This is the harness's `o` in wall-clock terms.
  const std::int64_t elements = state.range(0);
  for (auto _ : state) {
    mpi::Machine machine(mpi::MachineConfig::testbed(2));
    machine.run([elements](mpi::Rank& self) {
      auto pipeline =
          decouple::Pipeline::over(self, self.world()).with_helper_ranks({1});
      auto flow = pipeline.raw_stream(256);
      pipeline.run(
          [&](decouple::Context& ctx) {
            auto& s = ctx[flow];
            for (std::int64_t i = 0; i < elements; ++i) s.send_synthetic(256);
          },
          [&](decouple::Context& ctx) {
            auto& s = ctx[flow];
            s.on_receive([](const decouple::RawElement&) {});
            (void)s.operate();
          });
    });
  }
  state.SetItemsProcessed(state.iterations() * elements);
}
BENCHMARK(BM_SimulatedStreamElement)->Arg(5000);

}  // namespace

BENCHMARK_MAIN();
