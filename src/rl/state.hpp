// State featurization: maps processor telemetry to the paper's agent state
// s = (f, P, ipc, mr, mpki), normalized to comparable magnitudes so the
// network trains well. Normalization constants are part of the shared model
// contract: every federated client must use the same featurizer or the
// averaged weights would be meaningless.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/telemetry.hpp"

namespace fedpower::rl {

struct FeaturizerConfig {
  double f_max_mhz = 1479.0;  ///< normalizes frequency to [0, 1]
  double power_scale_w = 1.0; ///< P is already order-1 in watts
  double ipc_scale = 1.5;     ///< typical IPC ceiling of the A57 model
  double mpki_scale = 50.0;   ///< typical MPKI ceiling of the workloads
};

class StateFeaturizer {
 public:
  explicit StateFeaturizer(FeaturizerConfig config = {});

  /// Number of features produced (5: f, P, ipc, mr, mpki).
  static constexpr std::size_t kStateDim = 5;

  std::vector<double> featurize(const sim::TelemetrySample& sample) const;

  /// featurize() into caller-owned storage, allocating nothing.
  void featurize_into(const sim::TelemetrySample& sample,
                      std::span<double, kStateDim> out) const;

  const FeaturizerConfig& config() const noexcept { return config_; }

 private:
  FeaturizerConfig config_;
};

}  // namespace fedpower::rl
