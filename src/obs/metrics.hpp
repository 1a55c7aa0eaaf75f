// Metrics registry: the counters/gauges/histograms half of ds::obs.
//
// One queryable, JSON-dumpable home for run-wide stats: each stream's
// counters (its stream::StreamStats snapshot, added when a role
// completes), Machine::pool_stats, Fabric::link_bytes, ... Instruments are
// named, and each carries a rank dimension: a world rank for per-rank
// series, or kMachine (-1) for machine-wide series. Handles returned by
// counter()/gauge()/histogram() are stable for the registry's lifetime
// (node-based storage), so hot objects may cache them.
//
// Two feeding modes:
//  * lifecycle flush — runtime objects (streams) add their totals once,
//    when a role completes (producer terminate, consumer exhaustion),
//    keeping the per-element hot path untouched;
//  * collectors — callbacks registered by the machine that snapshot
//    pull-style state (fabric link bytes/occupancy, op-pool stats, engine
//    event count) when the registry is collected/dumped.
//
// The JSON schema (shared by every bench that dumps metrics):
//   {"schema":"ds.metrics.v1",
//    "counters":[{"name":..., "rank":..., "value":...}],
//    "gauges":[{"name":..., "rank":..., "value":...}],
//    "histograms":[{"name":..., "rank":..., "count":..., "sum":...,
//                   "min":..., "max":..., "p50":..., "p90":..., "p99":...}]}
// Entries are sorted by (name, rank), so dumps are deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace ds::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  [[nodiscard]] double value() const noexcept { return value_; }

 private:
  double value_ = 0.0;
};

/// Log2-bucketed histogram over nonnegative samples: cheap to feed (a
/// couple of integer ops), bounded memory, and percentile estimates good
/// to within one power of two — the right fidelity for distribution-shaped
/// diagnostics (per-link bytes, span durations).
class Histogram {
 public:
  void add(double v) noexcept;
  /// Drop all samples. Collectors that rebuild a distribution on every
  /// snapshot reset first so repeated collect() calls stay idempotent.
  void reset() noexcept { *this = Histogram{}; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }
  /// p in [0,1]: upper edge of the bucket holding the p-th sample (clamped
  /// to the observed min/max).
  [[nodiscard]] double percentile(double p) const noexcept;

 private:
  static constexpr int kBuckets = 64;
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class Metrics {
 public:
  /// Rank value for machine-wide (not per-rank) series.
  static constexpr int kMachine = -1;

  Counter& counter(const std::string& name, int rank = kMachine);
  Gauge& gauge(const std::string& name, int rank = kMachine);
  Histogram& histogram(const std::string& name, int rank = kMachine);

  /// Lookup without creating; nullptr when the series does not exist.
  [[nodiscard]] const Counter* find_counter(const std::string& name,
                                            int rank = kMachine) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name,
                                        int rank = kMachine) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name,
                                                int rank = kMachine) const;

  /// Sum of a counter series across every rank (including kMachine).
  [[nodiscard]] std::uint64_t counter_total(const std::string& name) const;

  /// Register a snapshot callback (fabric/pool/engine state); collect()
  /// runs them all, and to_json() collects first.
  void add_collector(std::function<void(Metrics&)> fn);
  void collect();

  /// The ds.metrics.v1 JSON document (runs collect() first).
  [[nodiscard]] std::string to_json();

  [[nodiscard]] std::size_t series_count() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  using Key = std::pair<std::string, int>;  // (name, rank), sorted
  std::map<Key, Counter> counters_;
  std::map<Key, Gauge> gauges_;
  std::map<Key, Histogram> histograms_;
  std::vector<std::function<void(Metrics&)>> collectors_;
};

}  // namespace ds::obs
