// Resilient decoupled pipeline: surviving a consumer crash mid-run.
//
// Eight ranks: six workers stream records to two helpers under
// Pipeline::with_resilience. A fault plan crashes one helper partway
// through; the workers rebind its flows to the survivor, replay the
// unacknowledged epoch, and the run completes with every record delivered
// to a surviving consumer — the recovery path pic_io's writeback stage uses.
//
// Exactly-once holds per consumer view: no helper ever sees a record twice.
// Records the crashed helper processed but had not yet made durable are
// replayed to the survivor by design, so they count once as re-deliveries.
// Fail-stop holds too: the crashed helper handles no record from its crash
// instant on. The program exits nonzero unless every record arrives, no
// helper sees a duplicate, and no record reaches a crashed helper.
#include <cstdio>
#include <vector>

#include "core/decouple.hpp"
#include "mpi/machine.hpp"
#include "mpi/rank.hpp"
#include "resilience/fault.hpp"

namespace {

using namespace ds;

constexpr int kWorkers = 6;
constexpr int kHelpers = 2;
constexpr int kRecordsPerWorker = 500;
constexpr int kRecords = kWorkers * kRecordsPerWorker;
constexpr int kCrashedRank = kWorkers + 1;

struct Sample {
  std::int32_t worker = 0;
  std::int32_t seq = 0;
};

/// What one helper saw: how often each record arrived there.
struct HelperView {
  std::vector<int> arrivals = std::vector<int>(kRecords, 0);
  int delivered = 0;
  int duplicates = 0;
  int after_crash = 0;  ///< records handled once the helper had crashed
};

}  // namespace

int main() {
  mpi::MachineConfig config;
  config.world_size = kWorkers + kHelpers;
  // Crash helper rank 7 at 200 microseconds of virtual time — mid-stream.
  config.faults.crash(kCrashedRank, util::microseconds(200));
  mpi::Machine machine(config);

  std::vector<HelperView> views(kHelpers);
  std::uint64_t replayed = 0;
  std::uint32_t failovers = 0;

  machine.run([&](mpi::Rank& self) {
    auto pipeline = decouple::Pipeline::over(self, self.world())
                        .with_helper_ranks({kWorkers, kWorkers + 1})
                        .with_resilience(/*checkpoint_interval=*/64);
    const auto samples = pipeline.stream<Sample>();

    pipeline.run(
        [&](decouple::Context& ctx) {  // worker: produce paced records
          auto& out = ctx[samples];
          for (int i = 0; i < kRecordsPerWorker; ++i) {
            self.compute(util::nanoseconds(800), "produce");
            out.send(Sample{ctx.worker_index(), i});
          }
          out.terminate();
          const stream::StreamStats stats = out.stats();
          replayed += stats.replayed_elements;
          failovers += stats.failovers;
        },
        [&](decouple::Context& ctx) {  // helper: consume until exhaustion
          auto& in = ctx[samples];
          auto& view = views[static_cast<std::size_t>(ctx.helper_index())];
          in.on_receive([&](const decouple::Element<Sample>& el) {
            if (self.failed()) ++view.after_crash;
            const int id =
                el.record.worker * kRecordsPerWorker + el.record.seq;
            ++view.delivered;
            if (view.arrivals[static_cast<std::size_t>(id)]++ > 0)
              ++view.duplicates;
          });
          in.operate();
        });
  });

  int distinct = 0, redelivered = 0;
  bool duplicates = false, after_crash = false;
  for (int id = 0; id < kRecords; ++id) {
    int arrivals = 0;
    for (const HelperView& view : views)
      arrivals += view.arrivals[static_cast<std::size_t>(id)];
    if (arrivals > 0) ++distinct;
    if (arrivals > 1) redelivered += arrivals - 1;
  }
  std::printf("resilient_pipeline: %d of %d records delivered, "
              "%u flow failovers, %llu elements replayed\n",
              distinct, kRecords, failovers,
              static_cast<unsigned long long>(replayed));
  for (int h = 0; h < kHelpers; ++h) {
    const HelperView& view = views[static_cast<std::size_t>(h)];
    std::printf("  helper rank %d%s: %d deliveries, %d duplicates\n",
                kWorkers + h, kWorkers + h == kCrashedRank ? " (crashed)" : "",
                view.delivered, view.duplicates);
    duplicates = duplicates || view.duplicates > 0;
    if (view.after_crash > 0) {
      std::printf("  FAIL: helper rank %d handled %d record(s) after its crash\n",
                  kWorkers + h, view.after_crash);
      after_crash = true;
    }
  }
  std::printf("  re-deliveries: %d records the crashed helper processed but "
              "had not made durable, replayed to the survivor\n",
              redelivered);
  return distinct == kRecords && !duplicates && !after_crash ? 0 : 1;
}
