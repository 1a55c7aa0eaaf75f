// Shared declarations of the repo benchmark's driver: the workload table,
// the machine model, host clocks, a minimal JSON writer, and the entry
// points of the application runs (workloads.cpp) and the per-layer drivers
// (layers.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "apps/pic/pic_app.hpp"
#include "mpi/machine.hpp"
#include "util/time.hpp"

namespace perfbench {

/// The four paper-application workloads (BENCHMARK.json says why each).
enum class Workload { MapReduce, PicExchange, CgHalo, PicIoResilient };

/// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] Workload parse_workload(const std::string& name);
/// Simulated world size the workload runs at.
[[nodiscard]] int default_procs(Workload workload);

/// Every workload splits its ranks the paper's way: one helper per 16.
inline constexpr int kStride = 16;
/// Epoch length of the resilient streams (pic_io chain, resilience drivers).
inline constexpr std::uint32_t kCheckpointInterval = 8;

/// Cray-XC40-flavoured machine, identical to bench::beskow_like: Aries-like
/// flat fabric, production-node noise seeded by `seed`, and a Lustre-like
/// file system with one server per eight ranks (at least 16). Kept here so
/// the benchmark's machine does not move when the figure benches change.
[[nodiscard]] ds::mpi::MachineConfig beskow_like(int procs, std::uint64_t seed);

/// pic_exchange_1k's configuration (the Fig. 7 bench's).
[[nodiscard]] ds::apps::pic::PicConfig pic_exchange_config(std::uint64_t seed);

/// Host clocks: CLOCK_MONOTONIC seconds (the clock Python's time.monotonic
/// reads, so driver spans line up with run.py's), process CPU seconds
/// (user + sys), and the process's peak resident set size in MiB.
[[nodiscard]] double wall_s();
[[nodiscard]] double cpu_s();
[[nodiscard]] double peak_rss_mb();

/// Host-time window over the ranks of one simulation: from the first rank
/// to reach begin() to the last rank to reach end(). The engine runs one
/// rank at a time on one host thread, so this is the host time the
/// simulation spent between the two program points.
class HostWindow {
 public:
  void begin();
  void end();
  [[nodiscard]] double seconds() const { return last_ - first_; }

 private:
  bool open_ = false;
  double first_ = 0.0;
  double last_ = 0.0;
};

/// Named pass/fail outcomes of correctness checks.
using Checks = std::vector<std::pair<std::string, bool>>;

/// One timed application run: host cost of the run_* call alone, its
/// virtual makespan, and the modeled invariants checked on its result.
struct VariantRun {
  double host_s = 0.0;
  double cpu_s = 0.0;
  double vt_s = 0.0;
  std::uint64_t file_bytes = 0;  ///< pic_io only
  Checks invariants;
};

/// The workload's conventional (`decoupled` false) or decoupled variant at
/// `procs` ranks. For pic_io, `crash_at` > 0 crashes writeback writer 1 at
/// that virtual time.
[[nodiscard]] VariantRun run_variant(Workload workload, bool decoupled,
                                     int procs, std::uint64_t seed,
                                     ds::util::SimTime crash_at);
/// pic_io_resilient_2k's decoupled variant without the crash: the run its
/// crash time and expected file size derive from.
[[nodiscard]] VariantRun run_fault_free_io(int procs, std::uint64_t seed);
/// Small real-data instances of the workload's applications, checked
/// against the sequential oracle. `perturb` corrupts one oracle value.
[[nodiscard]] Checks run_oracle_checks(Workload workload, std::uint64_t seed,
                                       bool perturb);

/// Host cost of the fixed set-up a decoupled run of a shape pays.
struct SetupRun {
  double total_s = 0.0;    ///< machine build, fiber spawn, create + free
  double channel_s = 0.0;  ///< Channel::create + free alone
};
/// Builds a `procs`-rank machine and runs Channel::create + free on the
/// stride-16 GroupPlan::interleaved split.
[[nodiscard]] SetupRun run_setup(int procs, std::uint64_t seed);

/// Per-layer metrics and the host-time span (wall_s) of each driver.
struct LayerReport {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::tuple<std::string, double, double>> spans;
};
[[nodiscard]] LayerReport run_layers(int procs, std::uint64_t seed);

/// JSON text of a number (17 significant digits, so virtual times survive
/// the round trip bit for bit) and of a string.
[[nodiscard]] std::string json_number(double value);
[[nodiscard]] std::string json_string(const std::string& text);

/// Minimal JSON object writer.
class Json {
 public:
  Json& num(const std::string& key, double value);
  Json& str(const std::string& key, const std::string& value);
  Json& boolean(const std::string& key, bool value);
  Json& nums(const std::string& key, const std::vector<double>& values);
  Json& checks(const std::string& key, const Checks& checks);
  /// `json` must already be valid JSON text.
  Json& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& name);
  std::string body_;
};

}  // namespace perfbench
