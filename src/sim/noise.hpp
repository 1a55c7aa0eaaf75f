// System-noise / process-imbalance model.
//
// The paper's central premise (Sec. I, II-A) is that on large machines OS
// noise and workload skew make equal work take unequal time, and that the
// idle time waiting for delayed peers compounds at scale. We model two
// mechanisms, both deterministic under the per-rank RNG:
//
//  * multiplicative jitter — every compute segment is scaled by a lognormal
//    factor with mean 1 and a configurable coefficient of variation; models
//    frequency/temperature variance and cache interference;
//  * detours — Poisson-arriving preemptions (daemons, kernel ticks) that add
//    an exponentially distributed delay; models the heavy tail seen on real
//    nodes (Petrini et al., "the missing supercomputer performance").
#pragma once

#include "util/rng.hpp"
#include "util/time.hpp"

namespace ds::sim {

struct NoiseConfig {
  /// Coefficient of variation of the multiplicative jitter (0 = no jitter).
  double jitter_cv = 0.0;
  /// Mean detour arrivals per simulated second of compute (0 = no detours).
  double detour_rate_hz = 0.0;
  /// Mean duration of one detour.
  util::SimTime detour_mean = util::microseconds(500);

  [[nodiscard]] bool enabled() const noexcept {
    return jitter_cv > 0.0 || detour_rate_hz > 0.0;
  }

  /// A calibration resembling a busy production Linux node: ~8% run-to-run
  /// spread plus ~30 detours/s of 500us mean (harmonic daemons and ticks).
  [[nodiscard]] static NoiseConfig production_node() noexcept {
    return NoiseConfig{0.08, 30.0, util::microseconds(500)};
  }
};

class NoiseModel {
 public:
  NoiseModel() = default;
  explicit NoiseModel(NoiseConfig config) noexcept;

  /// Perturb a nominal compute duration. Always >= 0; equals nominal when
  /// the model is disabled. Deterministic given the RNG state.
  [[nodiscard]] util::SimTime perturb(util::SimTime nominal, util::Rng& rng) const;

  [[nodiscard]] const NoiseConfig& config() const noexcept { return config_; }

 private:
  NoiseConfig config_{};
  double lognormal_mu_ = 0.0;
  double lognormal_sigma_ = 0.0;
};

}  // namespace ds::sim
