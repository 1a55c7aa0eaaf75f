// Fault-recovery bench: time-to-recover and goodput under an injected
// consumer crash (the ds::resilience subsystem end to end).
//
// Three runs of the same 16-producer / 8-consumer credit-windowed stream:
//
//  * baseline        — resilience off: the PR 4 transport as-is, the cost
//    reference for the resilience machinery.
//  * fault_free      — stream epochs on (checkpoint_interval, automatic
//    durability): measures the fault-free overhead (virtual makespan delta
//    vs. baseline) and the producers' peak replay retention, which must
//    stay bounded by the open epoch plus credit-window slack.
//  * consumer_crash  — one consumer is fail-stopped a third of the way
//    through the fault-free makespan: measures recovery (makespan delta vs.
//    fault_free), replayed elements, and verifies the exactly-once contract
//    — every element reaches some consumer, no element reaches any single
//    consumer twice, per-producer replay stays within
//    checkpoint_interval + credit-window slack, the survivors' filters
//    drop no duplicate, and no operator runs on a consumer after its crash
//    (fail-stop).
//
// With --churn a fourth scenario runs the crash/rejoin stress: ten
// crash/rejoin cycles sweep across the consumer group while producers keep
// streaming at a fixed pace. Every respawned incarnation re-attaches to the
// live channel (Channel::attach, no collective), producers hand its flows
// back voluntarily, and the run is gated on exactly-once delivery per
// consumer view (0 duplicates), full coverage across all views, no
// delivery to a crashed incarnation, and churn goodput >= 80% of the same
// paced run without faults.
//
// With --setup-crash another scenario crashes a consumer one nanosecond in
// — strictly inside Channel::create's role exchange. The failure-aware
// collectives plus the creation-time agreement rebuild the channel over the
// surviving membership (no failover, no replay: the victim was never a
// member), and the run is gated on exactly-once delivery, full coverage,
// and a bounded virtual-time cost over the fault-free resilient run.
//
// Emits BENCH_fault_recovery.json (override with DS_FAULT_BENCH_JSON) for
// the CI artifact; exits nonzero when any contract above fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/channel.hpp"
#include "core/stream.hpp"
#include "mpi/datatype.hpp"
#include "mpi/rank.hpp"
#include "resilience/fault.hpp"

namespace {

using namespace ds;

constexpr int kProducers = 16;
constexpr int kConsumers = 8;
constexpr std::uint32_t kInterval = 256;
constexpr std::uint32_t kWindow = 64;
constexpr int kVictim = 5;  ///< consumer index to crash (a tree-safe leaf)

struct RunResult {
  double wall_s = 0;
  double virtual_s = 0;
  std::uint64_t delivered = 0;       ///< operator invocations, all consumers
  std::uint64_t replayed = 0;        ///< re-posted elements, all producers
  std::uint64_t max_replayed_one = 0;///< worst single producer
  std::uint64_t retained_max = 0;    ///< peak replay retention, any producer
  std::uint64_t durable_acks = 0;
  std::uint64_t duplicates_filtered = 0;
  std::uint64_t dead_deliveries = 0; ///< operator invocations after a crash
  std::uint32_t failovers = 0;
  bool exactly_once = true;   ///< no element twice at any single consumer
  bool complete = true;       ///< every element seen somewhere
};

[[nodiscard]] mpi::MachineConfig bench_machine() {
  mpi::MachineConfig config;
  config.world_size = kProducers + kConsumers;
  config.engine.stack_bytes = 64 * 1024;
  return config;
}

[[nodiscard]] std::uint64_t element_id(int producer, int i) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(producer))
          << 32) |
         static_cast<std::uint32_t>(i);
}

RunResult run_stream(int elements_per_producer, bool resilient,
                     util::SimTime crash_at, bool setup_crash = false) {
  RunResult result;
  auto config = bench_machine();
  if (setup_crash)
    config.faults.crash_during_setup(kProducers + kVictim);
  else if (crash_at > 0)
    config.faults.crash(kProducers + kVictim, crash_at);
  mpi::Machine machine(config);
  // Per-consumer delivery records for the exactly-once / coverage checks.
  std::vector<std::vector<std::uint64_t>> delivered(
      static_cast<std::size_t>(kConsumers));
  const auto t0 = std::chrono::steady_clock::now();
  const util::SimTime makespan = machine.run([&](mpi::Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    stream::ChannelConfig cfg;
    cfg.mapping = stream::ChannelConfig::Mapping::Block;
    cfg.max_inflight = kWindow;
    if (resilient) cfg.checkpoint_interval = kInterval;
    const stream::Channel ch =
        stream::Channel::create(self, self.world(), producer, !producer, cfg);
    const int me = ch.my_consumer_index(self);
    stream::Stream s = stream::Stream::attach(
        ch, mpi::Datatype::int64(), [&](const stream::StreamElement& el) {
          if (self.failed()) ++result.dead_deliveries;
          std::uint64_t id = 0;
          std::memcpy(&id, el.data, sizeof id);
          delivered[static_cast<std::size_t>(me)].push_back(id);
        });
    if (producer) {
      for (int i = 0; i < elements_per_producer; ++i) {
        const std::uint64_t id = element_id(self.world_rank(), i);
        s.isend(self, mpi::SendBuf::of(&id, 1));
        if (resilient)
          result.retained_max =
              std::max(result.retained_max, s.stats().retained_elements);
      }
      s.terminate(self);
      const stream::StreamStats stats = s.stats();
      result.replayed += stats.replayed_elements;
      result.max_replayed_one =
          std::max(result.max_replayed_one, stats.replayed_elements);
      result.failovers += stats.failovers;
    } else {
      (void)s.operate(self);
      const stream::StreamStats stats = s.stats();
      result.durable_acks += stats.durable_acks;
      result.duplicates_filtered += stats.duplicates_dropped;
    }
  });
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  result.virtual_s = util::to_seconds(makespan);

  // Contract checks: exactly-once per consumer, full coverage overall.
  std::set<std::uint64_t> seen;
  for (const auto& d : delivered) {
    std::vector<std::uint64_t> sorted = d;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
      result.exactly_once = false;
    seen.insert(sorted.begin(), sorted.end());
    result.delivered += d.size();
  }
  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < elements_per_producer; ++i)
      if (!seen.count(element_id(p, i))) result.complete = false;
  return result;
}

// ---- churn: repeated crash/rejoin cycles under a paced stream -------------

constexpr int kChurnCycles = 10;
/// Incarnation views kept per consumer slot (cycles revisit victims, so a
/// slot can run its third life; anything beyond folds into the last view).
constexpr int kMaxIncarnations = 4;

struct ChurnResult {
  double wall_s = 0;
  double virtual_s = 0;
  std::uint64_t delivered = 0;   ///< operator invocations, all views
  std::uint64_t unique = 0;      ///< distinct elements across all views
  std::uint64_t replayed = 0;
  std::uint64_t duplicates_filtered = 0;
  std::uint64_t dead_deliveries = 0;  ///< operator invocations after a crash
  std::uint32_t failovers = 0;
  std::uint32_t rebalances = 0;  ///< voluntary handbacks (rejoins observed)
  int rejoined_views = 0;        ///< incarnation>0 views that saw elements
  bool exactly_once = true;      ///< no element twice within any single view
  bool complete = true;          ///< every element in some view
};

/// One paced run: each producer spaces its sends by a fixed compute step so
/// the producing window is long enough for every churn cycle to land inside
/// it. `inject` schedules kChurnCycles crash/restart pairs sweeping over
/// consumers 1..kConsumers-1 (slot 0 stays up so the machine is never
/// consumer-empty); the same pacing without faults is the goodput reference.
ChurnResult run_churn(int elements_per_producer, bool inject) {
  ChurnResult result;
  auto config = bench_machine();
  if (inject) {
    for (int k = 0; k < kChurnCycles; ++k) {
      const int victim = kProducers + 1 + (k % (kConsumers - 1));
      const util::SimTime crash_at = util::microseconds(200 + 300 * k);
      config.faults.crash(victim, crash_at)
          .restart(victim, crash_at + util::microseconds(140));
    }
  }
  mpi::Machine machine(config);
  // Delivery views are per (consumer slot, incarnation): a dead
  // incarnation's undurable tail is legitimately re-delivered to whoever
  // owns the flow next, so exactly-once holds within each view, and
  // coverage over the union of views.
  std::vector<std::vector<std::uint64_t>> views(
      static_cast<std::size_t>(kConsumers * kMaxIncarnations));
  const auto t0 = std::chrono::steady_clock::now();
  const util::SimTime makespan = machine.run([&](mpi::Rank& self) {
    const bool producer = self.world_rank() < kProducers;
    const int inc = self.machine().incarnation(self.world_rank());
    stream::ChannelConfig cfg;
    cfg.mapping = stream::ChannelConfig::Mapping::Block;
    cfg.max_inflight = kWindow;
    cfg.checkpoint_interval = kInterval;
    // A respawned incarnation missed the original collective: it re-admits
    // itself through the non-collective attach against the live channel.
    const stream::Channel ch =
        inc > 0 ? stream::Channel::attach(
                      self, self.world(),
                      [](int r) {
                        return static_cast<std::int8_t>(r < kProducers ? 1 : 2);
                      },
                      cfg)
                : stream::Channel::create(self, self.world(), producer,
                                          !producer, cfg);
    const int me = ch.my_consumer_index(self);
    const std::size_t view = static_cast<std::size_t>(
        me * kMaxIncarnations + std::min(inc, kMaxIncarnations - 1));
    stream::Stream s = stream::Stream::attach(
        ch, mpi::Datatype::int64(), [&](const stream::StreamElement& el) {
          if (self.failed()) ++result.dead_deliveries;
          std::uint64_t id = 0;
          std::memcpy(&id, el.data, sizeof id);
          views[view].push_back(id);
        });
    if (producer) {
      for (int i = 0; i < elements_per_producer; ++i) {
        self.compute(util::microseconds(2));  // the pacing: churn lands mid-stream
        const std::uint64_t id = element_id(self.world_rank(), i);
        s.isend(self, mpi::SendBuf::of(&id, 1));
      }
      s.terminate(self);
      const stream::StreamStats stats = s.stats();
      result.replayed += stats.replayed_elements;
      result.failovers += stats.failovers;
      result.rebalances += stats.rebalances;
    } else {
      (void)s.operate(self);
      result.duplicates_filtered += s.stats().duplicates_dropped;
    }
  });
  result.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.virtual_s = util::to_seconds(makespan);

  std::set<std::uint64_t> seen;
  for (std::size_t v = 0; v < views.size(); ++v) {
    std::vector<std::uint64_t> sorted = views[v];
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
      result.exactly_once = false;
    if (!sorted.empty() && v % kMaxIncarnations != 0) ++result.rejoined_views;
    seen.insert(sorted.begin(), sorted.end());
    result.delivered += sorted.size();
  }
  result.unique = seen.size();
  for (int p = 0; p < kProducers; ++p)
    for (int i = 0; i < elements_per_producer; ++i)
      if (!seen.count(element_id(p, i))) result.complete = false;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  // --churn / --setup-crash are ours, not BenchOptions'; strip them before
  // the strict parse.
  bool churn = false;
  bool setup_crash = false;
  std::vector<char*> args(argv, argv + argc);
  args.erase(std::remove_if(args.begin(), args.end(),
                            [&](char* a) {
                              if (std::strcmp(a, "--churn") == 0) {
                                churn = true;
                                return true;
                              }
                              if (std::strcmp(a, "--setup-crash") == 0) {
                                setup_crash = true;
                                return true;
                              }
                              return false;
                            }),
             args.end());
  const auto opt =
      util::BenchOptions::parse(static_cast<int>(args.size()), args.data());
  bench::print_header(
      "fault_recovery — consumer-crash recovery time and goodput",
      "ds::resilience: stream epochs, bounded replay, consumer failover "
      "(exascale-readiness: surviving rank loss mid-run)", opt);

  const int elements = opt.fast ? 2000 : 8000;
  const std::uint64_t total =
      static_cast<std::uint64_t>(kProducers) *
      static_cast<std::uint64_t>(elements);
  bool ok = true;

  util::Table table({"scenario", "delivered", "virtual_ms", "wall_s",
                     "replayed", "retained_max", "notes"});
  auto ms = [](double s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", s * 1e3);
    return std::string(buf);
  };

  // -- baseline: resilience off ---------------------------------------------
  const RunResult baseline = run_stream(elements, /*resilient=*/false, 0);
  ok &= baseline.delivered == total && baseline.exactly_once;
  table.add_row({"baseline_no_resilience", std::to_string(baseline.delivered),
                 ms(baseline.virtual_s), ms(baseline.wall_s / 1e3), "0", "0",
                 "reference"});

  // -- resilient, fault-free: overhead + bounded retention ------------------
  const RunResult fault_free = run_stream(elements, /*resilient=*/true, 0);
  ok &= fault_free.delivered == total && fault_free.exactly_once &&
        fault_free.complete;
  // Peak retention: the open epoch plus credit-window and frame slack.
  const std::uint64_t retention_bound = kInterval + 2 * kWindow + 128;
  if (fault_free.retained_max > retention_bound) {
    std::printf("FAIL: fault-free replay retention %llu exceeds bound %llu\n",
                static_cast<unsigned long long>(fault_free.retained_max),
                static_cast<unsigned long long>(retention_bound));
    ok = false;
  }
  const double overhead_pct =
      baseline.virtual_s > 0
          ? 100.0 * (fault_free.virtual_s - baseline.virtual_s) /
                baseline.virtual_s
          : 0.0;
  char note[64];
  std::snprintf(note, sizeof note, "overhead %.1f%%, %llu acks", overhead_pct,
                static_cast<unsigned long long>(fault_free.durable_acks));
  table.add_row({"resilient_fault_free", std::to_string(fault_free.delivered),
                 ms(fault_free.virtual_s), ms(fault_free.wall_s / 1e3), "0",
                 std::to_string(fault_free.retained_max), note});

  // -- consumer crash a third of the way through ----------------------------
  const util::SimTime crash_at =
      util::from_seconds(fault_free.virtual_s / 3.0);
  const RunResult crash = run_stream(elements, /*resilient=*/true, crash_at);
  // Coverage counts durable deliveries at the dead consumer too, so the
  // union check holds; exactly-once is per surviving consumer view.
  ok &= crash.exactly_once && crash.complete;
  if (crash.failovers == 0 || crash.replayed == 0) {
    std::printf("FAIL: the crash did not exercise failover "
                "(failovers=%u replayed=%llu)\n",
                crash.failovers,
                static_cast<unsigned long long>(crash.replayed));
    ok = false;
  }
  // Acceptance bound: per-producer replay <= checkpoint_interval + credit
  // window (+ one frame of slack for the element cap).
  const std::uint64_t replay_bound = kInterval + kWindow + 128;
  if (crash.max_replayed_one > replay_bound) {
    std::printf("FAIL: replayed %llu elements from one producer, bound %llu\n",
                static_cast<unsigned long long>(crash.max_replayed_one),
                static_cast<unsigned long long>(replay_bound));
    ok = false;
  }
  // Durability is acknowledged at epoch boundaries, where frames are cut,
  // so no replayed frame straddles the handoff's durable point: an adopter
  // that filters a duplicate received a flow's frames out of order.
  if (crash.duplicates_filtered != 0) {
    std::printf("FAIL: the consumers filtered %llu duplicates after the "
                "crash (expected 0)\n",
                static_cast<unsigned long long>(crash.duplicates_filtered));
    ok = false;
  }
  // Fail-stop: a crashed consumer takes no further action, so its operator
  // never runs after the crash instant.
  if (crash.dead_deliveries != 0) {
    std::printf("FAIL: %llu elements reached a crashed consumer's operator\n",
                static_cast<unsigned long long>(crash.dead_deliveries));
    ok = false;
  }
  const double recovery_s = crash.virtual_s - fault_free.virtual_s;
  std::snprintf(note, sizeof note, "recovery %.3f ms, %u failovers",
                recovery_s * 1e3, crash.failovers);
  table.add_row({"consumer_crash", std::to_string(crash.delivered),
                 ms(crash.virtual_s), ms(crash.wall_s / 1e3),
                 std::to_string(crash.replayed),
                 std::to_string(crash.max_replayed_one), note});

  // -- setup crash: a consumer dies inside Channel::create ------------------
  RunResult setup{};
  double rebuild_ratio = 0.0;
  if (setup_crash) {
    setup = run_stream(elements, /*resilient=*/true, 0, /*setup_crash=*/true);
    // The victim died before membership settled, so the channel is born over
    // the survivors: delivery must be complete and exactly-once without any
    // failover or replay ever triggering — the repair happened at setup.
    ok &= setup.exactly_once && setup.complete && setup.delivered == total;
    if (setup.failovers != 0 || setup.replayed != 0) {
      std::printf(
          "FAIL: setup crash leaked into the streaming phase "
          "(failovers=%u replayed=%llu; expected the rebuilt membership to "
          "exclude the victim)\n",
          setup.failovers, static_cast<unsigned long long>(setup.replayed));
      ok = false;
    }
    // Recovery-time gate: one retried role exchange plus the agreement, and
    // the same element volume spread over one fewer consumer. Block mapping
    // concentrates at most one extra producer on a consumer, so the makespan
    // must stay within 2x of the fault-free resilient run.
    rebuild_ratio = fault_free.virtual_s > 0
                        ? setup.virtual_s / fault_free.virtual_s
                        : 0.0;
    if (rebuild_ratio > 2.0) {
      std::printf("FAIL: setup-crash makespan %.3f ms is %.2fx the "
                  "fault-free run (bound 2x)\n",
                  setup.virtual_s * 1e3, rebuild_ratio);
      ok = false;
    }
    std::snprintf(note, sizeof note, "rebuild %.2fx fault-free, %u failovers",
                  rebuild_ratio, setup.failovers);
    table.add_row({"setup_crash", std::to_string(setup.delivered),
                   ms(setup.virtual_s), ms(setup.wall_s / 1e3),
                   std::to_string(setup.replayed), "-", note});
  }

  // -- churn: ten crash/rejoin cycles under a paced stream ------------------
  ChurnResult churn_ref, churned;
  double goodput_ratio = 1.0;
  if (churn) {
    const int churn_elements = opt.fast ? 2000 : 4000;
    churn_ref = run_churn(churn_elements, /*inject=*/false);
    churned = run_churn(churn_elements, /*inject=*/true);
    ok &= churn_ref.exactly_once && churn_ref.complete;
    ok &= churned.exactly_once && churned.complete;
    if (churned.failovers == 0 || churned.rebalances == 0 ||
        churned.rejoined_views == 0) {
      std::printf(
          "FAIL: churn did not exercise rejoin (failovers=%u rebalances=%u "
          "rejoined_views=%d)\n",
          churned.failovers, churned.rebalances, churned.rejoined_views);
      ok = false;
    }
    if (churned.dead_deliveries != 0) {
      std::printf("FAIL: churn delivered %llu elements to crashed "
                  "incarnations' operators\n",
                  static_cast<unsigned long long>(churned.dead_deliveries));
      ok = false;
    }
    // Goodput gate: useful-work rate (distinct elements per virtual second)
    // under churn must hold >= 80% of the same paced run without faults.
    const double ref_goodput =
        churn_ref.virtual_s > 0
            ? static_cast<double>(churn_ref.unique) / churn_ref.virtual_s
            : 0.0;
    const double churn_goodput =
        churned.virtual_s > 0
            ? static_cast<double>(churned.unique) / churned.virtual_s
            : 0.0;
    goodput_ratio = ref_goodput > 0 ? churn_goodput / ref_goodput : 0.0;
    if (goodput_ratio < 0.80) {
      std::printf("FAIL: churn goodput %.1f%% of fault-free (floor 80%%)\n",
                  goodput_ratio * 100.0);
      ok = false;
    }
    std::snprintf(note, sizeof note, "%d cycles, goodput %.0f%%, %u handbacks",
                  kChurnCycles, goodput_ratio * 100.0, churned.rebalances);
    table.add_row({"churn_fault_free", std::to_string(churn_ref.delivered),
                   ms(churn_ref.virtual_s), ms(churn_ref.wall_s / 1e3), "0",
                   "0", "paced reference"});
    table.add_row({"churn", std::to_string(churned.delivered),
                   ms(churned.virtual_s), ms(churned.wall_s / 1e3),
                   std::to_string(churned.replayed), "-", note});
  }

  bench::print_table(table);

  // -- JSON artifact --------------------------------------------------------
  const char* path = std::getenv("DS_FAULT_BENCH_JSON");
  if (path == nullptr) path = "BENCH_fault_recovery.json";
  if (FILE* f = std::fopen(path, "w")) {
    std::fprintf(
        f,
        "{\"bench\":\"fault_recovery\",\"world\":%d,\"producers\":%d,"
        "\"consumers\":%d,\"elements_per_producer\":%d,"
        "\"checkpoint_interval\":%u,\"max_inflight\":%u,\"scenarios\":["
        "{\"name\":\"baseline_no_resilience\",\"virtual_s\":%.9f,"
        "\"wall_s\":%.6f,\"delivered\":%llu},"
        "{\"name\":\"resilient_fault_free\",\"virtual_s\":%.9f,"
        "\"wall_s\":%.6f,\"delivered\":%llu,\"retained_max\":%llu,"
        "\"durable_acks\":%llu,\"overhead_pct\":%.3f},"
        "{\"name\":\"consumer_crash\",\"virtual_s\":%.9f,\"wall_s\":%.6f,"
        "\"delivered\":%llu,\"replayed_elements\":%llu,"
        "\"max_replayed_one_producer\":%llu,\"replay_bound\":%llu,"
        "\"recovery_virtual_s\":%.9f,\"failovers\":%u,"
        "\"duplicates_filtered\":%llu,\"dead_deliveries\":%llu,"
        "\"goodput_eps_virtual\":%.1f}",
        kProducers + kConsumers, kProducers, kConsumers, elements, kInterval,
        kWindow, baseline.virtual_s, baseline.wall_s,
        static_cast<unsigned long long>(baseline.delivered),
        fault_free.virtual_s, fault_free.wall_s,
        static_cast<unsigned long long>(fault_free.delivered),
        static_cast<unsigned long long>(fault_free.retained_max),
        static_cast<unsigned long long>(fault_free.durable_acks), overhead_pct,
        crash.virtual_s, crash.wall_s,
        static_cast<unsigned long long>(crash.delivered),
        static_cast<unsigned long long>(crash.replayed),
        static_cast<unsigned long long>(crash.max_replayed_one),
        static_cast<unsigned long long>(replay_bound), recovery_s,
        crash.failovers,
        static_cast<unsigned long long>(crash.duplicates_filtered),
        static_cast<unsigned long long>(crash.dead_deliveries),
        crash.virtual_s > 0
            ? static_cast<double>(crash.delivered) / crash.virtual_s
            : 0.0);
    if (setup_crash)
      std::fprintf(
          f,
          ",{\"name\":\"setup_crash\",\"virtual_s\":%.9f,\"wall_s\":%.6f,"
          "\"delivered\":%llu,\"rebuild_ratio\":%.4f,\"failovers\":%u,"
          "\"replayed_elements\":%llu,\"exactly_once\":%d,\"complete\":%d}",
          setup.virtual_s, setup.wall_s,
          static_cast<unsigned long long>(setup.delivered), rebuild_ratio,
          setup.failovers, static_cast<unsigned long long>(setup.replayed),
          setup.exactly_once ? 1 : 0, setup.complete ? 1 : 0);
    if (churn)
      std::fprintf(
          f,
          ",{\"name\":\"churn_fault_free\",\"virtual_s\":%.9f,"
          "\"wall_s\":%.6f,\"delivered\":%llu,\"unique\":%llu},"
          "{\"name\":\"churn\",\"cycles\":%d,\"virtual_s\":%.9f,"
          "\"wall_s\":%.6f,\"delivered\":%llu,\"unique\":%llu,"
          "\"replayed_elements\":%llu,\"failovers\":%u,\"rebalances\":%u,"
          "\"rejoined_views\":%d,\"duplicates_filtered\":%llu,"
          "\"dead_deliveries\":%llu,\"exactly_once\":%d,\"complete\":%d,"
          "\"goodput_ratio\":%.4f}",
          churn_ref.virtual_s, churn_ref.wall_s,
          static_cast<unsigned long long>(churn_ref.delivered),
          static_cast<unsigned long long>(churn_ref.unique), kChurnCycles,
          churned.virtual_s, churned.wall_s,
          static_cast<unsigned long long>(churned.delivered),
          static_cast<unsigned long long>(churned.unique),
          static_cast<unsigned long long>(churned.replayed), churned.failovers,
          churned.rebalances, churned.rejoined_views,
          static_cast<unsigned long long>(churned.duplicates_filtered),
          static_cast<unsigned long long>(churned.dead_deliveries),
          churned.exactly_once ? 1 : 0, churned.complete ? 1 : 0,
          goodput_ratio);
    std::fprintf(f, "]}\n");
    std::fclose(f);
    std::printf("JSON written to %s\n", path);
  }

  std::printf("fault_recovery check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
