#include "sim/noise.hpp"

#include <cmath>

namespace ds::sim {

NoiseModel::NoiseModel(NoiseConfig config) noexcept : config_(config) {
  if (config_.jitter_cv > 0.0) {
    // Lognormal with mean exactly 1: sigma^2 = ln(1 + cv^2), mu = -sigma^2/2.
    const double sigma_sq = std::log(1.0 + config_.jitter_cv * config_.jitter_cv);
    lognormal_sigma_ = std::sqrt(sigma_sq);
    lognormal_mu_ = -0.5 * sigma_sq;
  }
}

util::SimTime NoiseModel::perturb(util::SimTime nominal, util::Rng& rng) const {
  if (nominal <= 0) return 0;
  if (!config_.enabled()) return nominal;

  double duration = static_cast<double>(nominal);
  if (config_.jitter_cv > 0.0)
    duration *= rng.lognormal(lognormal_mu_, lognormal_sigma_);

  if (config_.detour_rate_hz > 0.0 && config_.detour_mean > 0) {
    // Poisson arrivals over the (jittered) busy interval, sampled by walking
    // exponential inter-arrival gaps. Bounded by construction: each iteration
    // consumes forward progress through the interval.
    const double interval_s = duration * 1e-9;
    const double mean_gap_s = 1.0 / config_.detour_rate_hz;
    double position_s = rng.exponential(mean_gap_s);
    while (position_s < interval_s) {
      duration += rng.exponential(static_cast<double>(config_.detour_mean));
      position_s += rng.exponential(mean_gap_s);
    }
  }
  return duration <= 0.0 ? 0 : static_cast<util::SimTime>(duration);
}

}  // namespace ds::sim
