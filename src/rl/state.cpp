#include "rl/state.hpp"

#include "util/assert.hpp"

namespace fedpower::rl {

StateFeaturizer::StateFeaturizer(FeaturizerConfig config) : config_(config) {
  FEDPOWER_EXPECTS(config_.f_max_mhz > 0.0);
  FEDPOWER_EXPECTS(config_.power_scale_w > 0.0);
  FEDPOWER_EXPECTS(config_.ipc_scale > 0.0);
  FEDPOWER_EXPECTS(config_.mpki_scale > 0.0);
}

std::vector<double> StateFeaturizer::featurize(
    const sim::TelemetrySample& sample) const {
  std::vector<double> features(kStateDim);
  featurize_into(sample, std::span<double, kStateDim>(features));
  return features;
}

void StateFeaturizer::featurize_into(const sim::TelemetrySample& sample,
                                     std::span<double, kStateDim> out) const {
  out[0] = sample.freq_mhz / config_.f_max_mhz;
  out[1] = sample.power_w / config_.power_scale_w;
  out[2] = sample.ipc / config_.ipc_scale;
  out[3] = sample.miss_rate;
  out[4] = sample.mpki / config_.mpki_scale;
}

}  // namespace fedpower::rl
