// ds::obs — the unified observability layer (spans, metrics, exporters).
//
// The paper's central evidence is observational: Fig. 2 is a per-rank trace
// view of iPIC3D before/after decoupling. This layer generalizes that view
// to the whole simulator: the runtime auto-instruments virtual-time spans
// (compute, send/recv blocking, collective rounds, stream operate/replay,
// agreement), the resilience path emits structured instant events (crash,
// failover, handoff, rejoin, agreement), and per-object stats (each
// stream's StreamStats at role completion, op-pool stats, per-link fabric
// bytes) feed one queryable metrics registry. Everything is
// exportable: Chrome trace-event JSON (loads in Perfetto /
// chrome://tracing), CSV, an ASCII timeline, and a metrics JSON schema
// shared by all benches.
//
// Hard contract: observability is OFF by default and costs nothing on the
// hot path when off (a null-pointer check at each hook site; the
// micro_simcore 0-allocs/element gate runs with it disabled). Enabled-mode
// overhead is bounded by micro_simcore's obs_enabled scenario (<= 5% eps).
#pragma once

#include <cstdint>

namespace ds::obs {

/// Span taxonomy: what a rank was doing over a virtual-time interval.
/// Auto-instrumented by the runtime; applications only ever add Compute
/// spans (via Process::compute / Rank::compute labels).
enum class SpanKind : std::uint8_t {
  Compute = 0,       ///< fiber occupied the CPU (Process::compute)
  SendBlocked,       ///< blocked waiting for a send to complete / a credit
  RecvBlocked,       ///< blocked waiting for a receive / a stream arrival
  Collective,        ///< inside a blocking collective (label names it)
  Agreement,         ///< inside Rank::agree
  StreamOperate,     ///< consumer servicing a stream (operate/operate_while)
  StreamReplay,      ///< producer replaying retained frames after failover
  Other,             ///< application/legacy label without a taxonomy slot
};

/// Stable lowercase name for a span kind (Chrome trace "cat", CSV column).
[[nodiscard]] const char* span_kind_name(SpanKind kind) noexcept;

/// Per-machine observability switches (mpi::MachineConfig::observability).
struct ObsConfig {
  /// Record auto-instrumented spans and instant events (obs::Recorder).
  bool trace = false;
  /// Collect the metrics registry (obs::Metrics): runtime objects flush
  /// their counters at lifecycle points and machine collectors snapshot
  /// fabric/pool/engine state on demand.
  bool metrics = false;

  [[nodiscard]] static ObsConfig all() noexcept { return ObsConfig{true, true}; }
  [[nodiscard]] bool any() const noexcept { return trace || metrics; }
};

}  // namespace ds::obs
