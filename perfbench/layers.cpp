// Per-layer drivers of the repo benchmark. Each times public calls of one
// simulator layer (sim, net, mpi, core, resilience, obs) at the workload's
// world size and stride-16 shape, outside any application, so a change to
// one layer shows in its own number. perfbench/rationale.json names the
// end-to-end metric and workload each driver is expected to move.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/channel.hpp"
#include "core/decouple.hpp"
#include "core/group_plan.hpp"
#include "core/stream.hpp"
#include "mpi/io.hpp"
#include "mpi/rank.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fiber.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace mpi = ds::mpi;
namespace pic = ds::apps::pic;
namespace stream = ds::stream;
using ds::util::SimTime;

constexpr int kHeapOps = 1 << 21;
constexpr int kFiberSwitches = 1 << 20;
constexpr int kFabricMessages = 1 << 20;
constexpr int kRankLookups = 1 << 18;
/// Matched messages per p2p measurement, spread over the ranks.
constexpr int kP2pMessages = 1 << 20;
constexpr int kLiveContexts = 8;
/// One face of a 120^3 CG subdomain, in bytes (the cg_halo_2k halo unit).
constexpr std::size_t kFaceBytes = 120 * 120 * sizeof(double);
/// One rank's PIC dump: 250k particles.
constexpr std::size_t kDumpBytes = 250'000 * sizeof(pic::Particle);
constexpr std::size_t kSmallElement = 64;
constexpr std::size_t kBulkElement = 16 * 1024;
/// World-size cap of the traced PIC runs behind vt.* and obs.*: a
/// 1024-rank trace holds millions of spans.
constexpr int kTraceProcs = 256;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Median of three calls: a short driver sampled once is at the mercy of a
/// single scheduler hiccup.
double median3(const std::function<double()>& fn) {
  return median({fn(), fn(), fn()});
}

// ---- sim ---------------------------------------------------------------

/// EventQueue push + pop at heap depth `procs` (one pending event per rank).
double event_ns(int procs, std::uint64_t seed) {
  ds::util::Rng rng(seed);
  ds::sim::EventQueue queue;
  for (int i = 0; i < procs; ++i)
    (void)queue.push(rng.uniform_int(0, 1'000'000), ds::sim::Callback{});
  std::vector<SimTime> delays(kHeapOps);
  for (auto& delay : delays) delay = rng.uniform_int(1, 1000);
  const double t0 = wall_s();
  for (const SimTime delay : delays) {
    ds::sim::Event event = queue.pop();
    (void)queue.push(event.time + delay, std::move(event.action));
  }
  return (wall_s() - t0) * 1e9 / kHeapOps;
}

/// Fiber::resume + Fiber::yield round trip.
double fiber_switch_ns() {
  ds::sim::Fiber fiber([] {
    for (int i = 0; i < kFiberSwitches; ++i) ds::sim::Fiber::yield();
  });
  const double t0 = wall_s();
  for (int i = 0; i < kFiberSwitches; ++i) fiber.resume();
  const double elapsed = wall_s() - t0;
  fiber.resume();  // let the body return
  return elapsed * 1e9 / kFiberSwitches;
}

/// Engine::spawn of `procs` empty bodies, run to completion, per rank.
double spawn_us_per_rank(int procs, std::uint64_t seed) {
  const double t0 = wall_s();
  {
    ds::sim::EngineConfig config;
    config.seed = seed;
    ds::sim::Engine engine(config);
    for (int r = 0; r < procs; ++r) engine.spawn([](ds::sim::Process&) {});
    engine.run();
  }
  return (wall_s() - t0) * 1e6 / procs;
}

// ---- net ---------------------------------------------------------------

/// Fabric::schedule_message over random rank pairs at `procs` endpoints.
double schedule_ns(int procs, std::uint64_t seed) {
  struct Message {
    int src;
    int dst;
    std::size_t bytes;
    SimTime at;
  };
  ds::util::Rng rng(seed);
  std::vector<Message> traffic(kFabricMessages);
  SimTime at = 0;
  for (auto& m : traffic) {
    m.src = static_cast<int>(rng.uniform_int(0, procs - 1));
    m.dst = static_cast<int>((m.src + rng.uniform_int(1, procs - 1)) % procs);
    m.bytes = static_cast<std::size_t>(rng.uniform_int(64, 64 * 1024));
    at += rng.uniform_int(0, 100);
    m.at = at;
  }
  ds::net::Fabric fabric(ds::net::NetworkConfig::aries_like(), procs);
  SimTime latest = 0;
  const double t0 = wall_s();
  for (const auto& m : traffic)
    latest = std::max(latest,
                      fabric.schedule_message(m.src, m.dst, m.bytes, m.at).deliver_at);
  const double elapsed = wall_s() - t0;
  if (latest <= 0) throw std::logic_error("fabric delivered nothing");
  return elapsed * 1e9 / kFabricMessages;
}

// ---- mpi ---------------------------------------------------------------

/// Matched eager isend/irecv/wait between rank pairs, each rank keeping
/// kLiveContexts communicators (matching contexts) busy at once.
double p2p_msg_ns(int procs, std::uint64_t seed) {
  if (procs % 2 != 0) throw std::invalid_argument("p2p driver needs an even world");
  mpi::Machine machine(beskow_like(procs, seed));
  std::vector<mpi::Comm> comms;
  for (int k = 0; k < kLiveContexts; ++k)
    comms.emplace_back(
        mpi::Machine::derive_context(machine.world().context(), 0x9e3779b9u,
                                     static_cast<std::uint64_t>(k)),
        machine.world().group());
  const int rounds = std::max(1, kP2pMessages / (procs * kLiveContexts));
  HostWindow window;
  machine.run([&](mpi::Rank& self) {
    const int partner = self.world_rank() ^ 1;
    const std::array<double, 8> out{};
    std::array<std::array<double, 8>, kLiveContexts> in{};
    std::vector<mpi::Request> requests;
    requests.reserve(2 * kLiveContexts);
    window.begin();
    for (int round = 0; round < rounds; ++round) {
      requests.clear();
      for (std::size_t k = 0; k < kLiveContexts; ++k) {
        requests.push_back(self.irecv(comms[k], partner, 7,
                                      mpi::RecvBuf::of(in[k].data(), in[k].size())));
        requests.push_back(self.isend(comms[k], partner, 7,
                                      mpi::SendBuf::of(out.data(), out.size())));
      }
      self.wait_all(requests);
    }
    window.end();
  });
  return window.seconds() * 1e9 /
         (static_cast<double>(procs) * rounds * kLiveContexts);
}

/// Group::rank_of on the `procs`-member world group, uniform random keys.
double rank_of_ns(int procs, std::uint64_t seed) {
  const mpi::Group group = mpi::Group::world(procs);
  ds::util::Rng rng(seed);
  std::vector<int> keys(kRankLookups);
  for (int& key : keys) key = static_cast<int>(rng.uniform_int(0, procs - 1));
  long long found = 0;
  const double t0 = wall_s();
  for (const int key : keys) found += group.rank_of(key);
  const double elapsed = wall_s() - t0;
  if (found < 0) throw std::logic_error("rank_of missed a member");
  return elapsed * 1e9 / kRankLookups;
}

/// Host milliseconds per collective call: every rank passes a barrier, then
/// runs `call` `calls` times.
double collective_ms(int procs, std::uint64_t seed, int calls,
                     const std::function<void(mpi::Rank&)>& call) {
  mpi::Machine machine(beskow_like(procs, seed));
  HostWindow window;
  machine.run([&](mpi::Rank& self) {
    (void)self.barrier(self.world());
    window.begin();
    for (int i = 0; i < calls; ++i) call(self);
    window.end();
  });
  return window.seconds() * 1e3 / calls;
}

/// alltoallv of six face-sized blocks per rank, to the ranks 1, s and s^2
/// away in both directions (s = cube root of P): a 3D halo's shape.
double alltoallv_ms(int procs, std::uint64_t seed) {
  const int s = std::max(2, static_cast<int>(std::lround(std::cbrt(procs))));
  std::vector<std::vector<std::size_t>> counts(
      static_cast<std::size_t>(procs),
      std::vector<std::size_t>(static_cast<std::size_t>(procs), 0));
  for (int r = 0; r < procs; ++r)
    for (const int d : {1, s, s * s}) {
      auto& row = counts[static_cast<std::size_t>(r)];
      row[static_cast<std::size_t>((r + d) % procs)] = kFaceBytes;
      row[static_cast<std::size_t>(((r - d) % procs + procs) % procs)] = kFaceBytes;
    }
  return collective_ms(procs, seed, 3, [&](mpi::Rank& self) {
    const auto& mine = counts[static_cast<std::size_t>(self.world_rank())];
    (void)self.alltoallv(self.world(), nullptr, mine, nullptr, mine);
  });
}

double allreduce_ms(int procs, std::uint64_t seed) {
  return collective_ms(procs, seed, 8, [](mpi::Rank& self) {
    const double mine = self.world_rank();
    double sum = 0.0;
    (void)self.allreduce(self.world(), mpi::SendBuf::of(&mine, 1), &sum,
                         mpi::reduce_sum<double>());
  });
}

/// File::write_all of one PIC dump block per rank (synthetic payload).
double write_all_ms(int procs, std::uint64_t seed) {
  mpi::Machine machine(beskow_like(procs, seed));
  constexpr int kWrites = 2;
  HostWindow window;
  machine.run([&](mpi::Rank& self) {
    mpi::File file(self.machine(), self.world(), "perfbench.dump");
    (void)self.barrier(self.world());
    window.begin();
    for (int i = 0; i < kWrites; ++i)
      (void)file.write_all(self, mpi::SendBuf::synthetic(kDumpBytes));
    window.end();
  });
  return window.seconds() * 1e3 / kWrites;
}

// ---- core --------------------------------------------------------------

/// decouple::Pipeline over the stride-16 split with wordcount's three-stage
/// chain (workers -> helpers -> one master) and idle stages: channel
/// creation, role dispatch, RAII termination and release.
double pipeline_setup_s(int procs, std::uint64_t seed) {
  mpi::Machine machine(beskow_like(procs, seed));
  const auto plan = stream::GroupPlan::interleaved(machine.world(), kStride);
  const int master = plan.helpers().front();
  const ds::decouple::Pipeline::RoleFn idle = [](ds::decouple::Context&) {};
  HostWindow window;
  machine.run([&](mpi::Rank& self) {
    window.begin();
    {
      auto pipeline = ds::decouple::Pipeline::over(self, self.world());
      const auto map = pipeline.stage(plan.workers());
      const auto reduce = pipeline.stage(
          [&](int r) { return plan.is_helper(r) && r != master; });
      const auto top = pipeline.stage(std::vector<int>{master});
      (void)pipeline.stream_between<std::uint64_t>(map, reduce);
      (void)pipeline.stream_between<std::uint64_t>(reduce, top);
      pipeline.run_stages({idle, idle, idle});
    }
    window.end();
  });
  return window.seconds();
}

struct StreamRun {
  double host_s = 0.0;         ///< whole machine build + run
  double window_s = 0.0;       ///< first send .. last consumer exhausted
  std::uint64_t elements = 0;  ///< elements consumed
  SimTime stream_begin = 0;    ///< latest return from Channel::create
  SimTime first_terminate = std::numeric_limits<SimTime>::max();
};

/// Workers stream to the stride-16 helpers in rounds of six elements with
/// 2 us of compute between rounds. Small elements are 64 B of real payload,
/// Directed to a rotating helper (CG's per-iteration faces); bulk elements
/// are 16 KiB synthetic and Block-mapped (PIC's particle frames). A
/// `crash_at` > 0 crashes helper 1 then.
StreamRun run_stream(int procs, std::uint64_t seed, bool bulk,
                     std::uint32_t checkpoint_interval, SimTime crash_at) {
  mpi::MachineConfig config = beskow_like(procs, seed);
  const mpi::Comm world(0, mpi::Group::world(procs));
  const auto plan = stream::GroupPlan::interleaved(world, kStride);
  if (crash_at > 0) config.faults.crash(plan.helpers().at(1), crash_at);
  const int rounds = bulk ? 3 : 40;
  const std::size_t element = bulk ? kBulkElement : kSmallElement;
  StreamRun run;
  HostWindow window;
  const double t0 = wall_s();
  {
    mpi::Machine machine(config);
    machine.run([&](mpi::Rank& self) {
      const int me = self.world_rank();
      stream::ChannelConfig channel_config;
      channel_config.mapping = bulk ? stream::ChannelConfig::Mapping::Block
                                    : stream::ChannelConfig::Mapping::Directed;
      channel_config.checkpoint_interval = checkpoint_interval;
      stream::Channel channel = stream::Channel::create(
          self, self.world(), plan.is_worker(me), plan.is_helper(me),
          channel_config);
      stream::Stream s = stream::Stream::attach(
          channel, mpi::Datatype::bytes(element),
          [&](const stream::StreamElement&) { ++run.elements; });
      run.stream_begin = std::max(run.stream_begin, self.now());
      window.begin();
      if (plan.is_worker(me)) {
        const int producer = channel.my_producer_index(self);
        const int consumers = channel.consumer_count();
        const std::array<std::byte, kSmallElement> payload{};
        for (int round = 0; round < rounds; ++round) {
          for (int k = 0; k < 6; ++k) {
            if (bulk)
              s.isend(self, mpi::SendBuf::synthetic(element));
            else
              s.isend_to(self, (producer + 7 * k + round) % consumers,
                         mpi::SendBuf::of(payload.data(), payload.size()));
          }
          self.compute(ds::util::microseconds(2));
        }
        run.first_terminate = std::min(run.first_terminate, self.now());
        s.terminate(self);
      } else {
        (void)s.operate(self);
      }
      window.end();
      channel.free(self);
    });
  }
  run.host_s = wall_s() - t0;
  run.window_s = window.seconds();
  return run;
}

// ---- obs / virtual-time breakdown ---------------------------------------

/// Self time per span kind, summed over ranks, from Recorder::to_csv rows
/// (rank,begin_ns,end_ns,label,kind,depth, in span-end order): a span's
/// self time is its length minus the lengths of its direct children.
std::map<std::string, double> self_time_ns(const std::string& csv) {
  std::map<std::string, double> by_kind;
  std::vector<std::vector<SimTime>> child;  // per rank, per depth
  std::istringstream lines(csv);
  std::string line;
  std::getline(lines, line);  // header
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const auto c1 = line.find(',');
    const auto c2 = line.find(',', c1 + 1);
    const auto c3 = line.find(',', c2 + 1);
    const auto d = line.rfind(',');
    const auto k = line.rfind(',', d - 1);
    if (c3 == std::string::npos || k < c3)
      throw std::runtime_error("malformed trace CSV row: " + line);
    const auto rank = static_cast<std::size_t>(std::stoi(line.substr(0, c1)));
    const SimTime begin = std::stoll(line.substr(c1 + 1, c2 - c1 - 1));
    const SimTime end = std::stoll(line.substr(c2 + 1, c3 - c2 - 1));
    const std::string kind = line.substr(k + 1, d - k - 1);
    const auto depth = static_cast<std::size_t>(std::stoi(line.substr(d + 1)));
    if (rank >= child.size()) child.resize(rank + 1);
    auto& sums = child[rank];
    if (sums.size() < depth + 2) sums.resize(depth + 2, 0);
    const SimTime length = end - begin;
    by_kind[kind] += static_cast<double>(length - sums[depth + 1]);
    sums[depth + 1] = 0;
    sums[depth] += length;
  }
  return by_kind;
}

/// obs.trace_overhead and the vt.* shares: both PIC exchange variants at
/// min(P, kTraceProcs) ranks, untraced and then through run_pic_traced.
void trace_metrics(LayerReport& report, int procs, std::uint64_t seed) {
  const int trace_procs = std::min(procs, kTraceProcs);
  const auto config = pic_exchange_config(seed);
  const auto machine = beskow_like(trace_procs, seed);
  constexpr std::array kVariants{pic::ExchangeVariant::Reference,
                                 pic::ExchangeVariant::Decoupled};
  double plain = 0.0;
  for (const auto variant : kVariants) {
    const double t0 = wall_s();
    (void)pic::run_pic(variant, config, machine);
    plain += wall_s() - t0;
  }
  double traced = 0.0;
  for (const auto variant : kVariants) {
    const double t0 = wall_s();
    const auto run = pic::run_pic_traced(variant, config, machine);
    traced += wall_s() - t0;
    auto self = self_time_ns(run.csv_trace);
    const double rank_time =
        static_cast<double>(trace_procs) *
        static_cast<double>(ds::util::from_seconds(run.result.seconds));
    const bool reference = variant == pic::ExchangeVariant::Reference;
    const std::string prefix = reference ? "vt.reference." : "vt.decoupled.";
    for (const std::string kind :
         {"compute", "send_blocked", "recv_blocked", "collective", "stream_operate"}) {
      // The reference has no streams, and its per-round allreduce is
      // nonblocking (its waits count as recv_blocked): both shares are 0.
      if (reference && (kind == "stream_operate" || kind == "collective")) continue;
      report.metrics.emplace_back(prefix + kind + "_frac", self[kind] / rank_time);
    }
  }
  report.metrics.emplace_back("obs.trace_overhead", traced / plain);
}

}  // namespace

SetupRun run_setup(int procs, std::uint64_t seed) {
  HostWindow window;
  const double t0 = wall_s();
  {
    mpi::Machine machine(beskow_like(procs, seed));
    const auto plan = stream::GroupPlan::interleaved(machine.world(), kStride);
    machine.run([&](mpi::Rank& self) {
      const int me = self.world_rank();
      window.begin();
      stream::Channel channel = stream::Channel::create(
          self, self.world(), plan.is_worker(me), plan.is_helper(me));
      channel.free(self);
      window.end();
    });
  }
  return {wall_s() - t0, window.seconds()};
}

LayerReport run_layers(int procs, std::uint64_t seed) {
  LayerReport report;
  const auto measure = [&](const std::string& name,
                           const std::function<double()>& fn) {
    const double t0 = wall_s();
    const double value = fn();
    report.metrics.emplace_back(name, value);
    report.spans.emplace_back(name, t0, wall_s());
  };
  measure("sim.event_ns", [&] { return median3([&] { return event_ns(procs, seed); }); });
  measure("sim.fiber_switch_ns", [] { return median3(fiber_switch_ns); });
  measure("sim.spawn_us_per_rank",
          [&] { return median3([&] { return spawn_us_per_rank(procs, seed); }); });
  measure("net.schedule_ns",
          [&] { return median3([&] { return schedule_ns(procs, seed); }); });
  measure("mpi.p2p_msg_ns", [&] { return p2p_msg_ns(procs, seed); });
  measure("mpi.rank_of_ns",
          [&] { return median3([&] { return rank_of_ns(procs, seed); }); });
  measure("mpi.alltoallv_ms", [&] { return alltoallv_ms(procs, seed); });
  measure("mpi.allreduce_ms", [&] { return allreduce_ms(procs, seed); });
  measure("mpi.write_all_ms", [&] { return write_all_ms(procs, seed); });
  measure("core.pipeline_setup_s", [&] { return pipeline_setup_s(procs, seed); });
  measure("core.stream_element_ns", [&] {
    const StreamRun run = run_stream(procs, seed, false, 0, 0);
    return run.window_s * 1e9 / static_cast<double>(run.elements);
  });
  measure("core.stream_bulk_ns_per_kib", [&] {
    const StreamRun run = run_stream(procs, seed, true, 0, 0);
    return run.window_s * 1e9 /
           (static_cast<double>(run.elements) * (kBulkElement / 1024));
  });
  StreamRun clean;
  measure("resilience.stream_element_ns", [&] {
    clean = run_stream(procs, seed, false, kCheckpointInterval, 0);
    return clean.window_s * 1e9 / static_cast<double>(clean.elements);
  });
  measure("resilience.crash_overhead", [&] {
    const SimTime crash_at =
        clean.stream_begin + (clean.first_terminate - clean.stream_begin) / 3;
    const StreamRun faulty =
        run_stream(procs, seed, false, kCheckpointInterval, crash_at);
    return faulty.host_s / clean.host_s;
  });
  const double t0 = wall_s();
  trace_metrics(report, procs, seed);
  report.spans.emplace_back("obs.pic_traced", t0, wall_s());
  return report;
}

}  // namespace perfbench
