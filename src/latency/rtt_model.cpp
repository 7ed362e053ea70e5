#include "latency/rtt_model.h"

#include <cmath>
#include <numbers>

#include "common/error.h"
#include "common/simd.h"

namespace acdn {

void RttConfig::validate() const {
  require(km_per_rtt_ms > 0.0, "km_per_rtt_ms must be positive");
  require(jitter_sigma >= 0.0, "jitter_sigma must be non-negative");
  require(congestion_prob >= 0.0 && congestion_prob <= 1.0,
          "congestion_prob must be in [0,1]");
  require(diurnal_amplitude >= 0.0 && diurnal_amplitude < 1.0,
          "diurnal_amplitude must be in [0,1)");
}

RttModel::RttModel(const RttConfig& config) : config_(config) {
  config_.validate();
}

Milliseconds RttModel::base_rtt(Kilometers one_way_path_km, int as_hops,
                                Milliseconds last_mile_ms) const {
  require(one_way_path_km >= 0.0, "negative path length");
  return one_way_path_km / config_.km_per_rtt_ms +
         config_.per_as_hop_ms * as_hops + last_mile_ms;
}

void RttModel::base_rtt_batch(std::span<const Kilometers> one_way_path_km,
                              std::span<const std::int32_t> as_hops,
                              std::span<const Milliseconds> last_mile_ms,
                              std::span<Milliseconds> out) const {
  for (const Kilometers km : one_way_path_km) {
    require(km >= 0.0, "negative path length");
  }
  simd::base_rtt_batch(one_way_path_km, as_hops, last_mile_ms,
                       config_.km_per_rtt_ms, config_.per_as_hop_ms, out);
}

Milliseconds RttModel::sample(Milliseconds base, const SimTime& t,
                              Rng& rng) const {
  return sample_at(base, diurnal_factor(t), rng);
}

double RttModel::diurnal_factor(const SimTime& t) const {
  // Diurnal multiplier: cosine with peak at peak_hour.
  const double phase =
      2.0 * std::numbers::pi * (t.hour_of_day() - config_.peak_hour) / 24.0;
  return 1.0 + config_.diurnal_amplitude * std::cos(phase);
}

Milliseconds RttModel::sample_at(Milliseconds base, double diurnal,
                                 Rng& rng) const {
  // Multiplicative jitter centred on 1 (mean-corrected lognormal).
  const double jitter =
      rng.lognormal(-0.5 * config_.jitter_sigma * config_.jitter_sigma,
                    config_.jitter_sigma);

  Milliseconds rtt = base * diurnal * jitter;
  if (rng.bernoulli(config_.congestion_prob)) {
    rtt += rng.exponential(1.0 / config_.congestion_mean_ms);
  }
  return rtt;
}

Milliseconds RttModel::draw_last_mile(const LastMileMix& mix, Rng& rng) {
  const double weights[] = {mix.fiber_share, mix.cable_share, mix.dsl_share,
                            mix.wireless_share};
  // Median last-mile RTT per technology (ms); lognormal spread around it.
  constexpr double kMedianMs[] = {4.0, 10.0, 18.0, 35.0};
  constexpr double kSigma[] = {0.3, 0.4, 0.45, 0.5};
  const std::size_t tech = rng.weighted_index(weights);
  return rng.lognormal(std::log(kMedianMs[tech]), kSigma[tech]);
}

}  // namespace acdn
