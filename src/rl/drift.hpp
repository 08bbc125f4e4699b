// Reward-drift detection for online adaptation.
//
// The paper motivates online RL with "changes in the workload, user
// preferences or ambient conditions" (§ Abstract), but its temperature
// schedule only ever decays — once the policy exploits, a workload shift
// leaves it stuck with a stale value surface until enough new samples wash
// through the buffer. DriftMonitor compares a fast and a slow exponential
// moving average of the reward; when the fast average falls clearly below
// the slow one, the environment has likely changed and the agent should
// re-explore (NeuralBanditAgent::reheat()).
#pragma once

#include <cstddef>

#include "ckpt/binary_io.hpp"
#include "util/assert.hpp"

namespace fedpower::rl {

struct DriftConfig {
  double fast_alpha = 0.2;      ///< EWMA coefficient of the fast tracker
  double slow_alpha = 0.01;     ///< EWMA coefficient of the slow tracker
  double drop_threshold = 0.3;  ///< trigger when fast < slow - threshold
  std::size_t warmup = 50;      ///< samples before detection is armed
  std::size_t cooldown = 200;   ///< samples suppressed after a trigger
};

class DriftMonitor {
 public:
  explicit DriftMonitor(DriftConfig config = {});

  /// Feeds one reward observation; returns true when a drift is detected
  /// (at most once per cooldown window).
  bool observe(double reward);

  double fast() const noexcept { return fast_; }
  double slow() const noexcept { return slow_; }
  std::size_t samples() const noexcept { return samples_; }
  std::size_t detections() const noexcept { return detections_; }

  void reset() noexcept;

  /// Checkpointing: the EWMA trackers and counters (config is not saved).
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

  const DriftConfig& config() const noexcept { return config_; }

 private:
  template <class Self, class Io> static void fields(Self& s, Io& io);

  DriftConfig config_;  // lint: ckpt-skip(construction config, fixed for the run)
  double fast_ = 0.0;
  double slow_ = 0.0;
  std::size_t samples_ = 0;
  std::size_t since_trigger_ = 0;
  std::size_t detections_ = 0;
};

}  // namespace fedpower::rl
