// The per-device power controller (paper §III-A): an RL agent that
// alternates between observing the processor state and setting a V/f level
// every DVFS interval, learning online which frequency keeps power just
// below the constraint for the current workload.
//
// PowerController also implements fed::FederatedClient, so a set of
// controllers can be handed directly to fed::FederatedAveraging — that
// composition *is* the paper's federated power control (Fig. 1).
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/federation.hpp"
#include "rl/drift.hpp"
#include "rl/neural_agent.hpp"
#include "rl/reward.hpp"
#include "rl/state.hpp"
#include "sim/device.hpp"

namespace fedpower::core {

/// Full configuration of one power controller; defaults are the paper's
/// Table I.
struct ControllerConfig {
  rl::NeuralAgentConfig agent{};
  rl::FeaturizerConfig featurizer{};
  double p_crit_w = 0.6;            // power constraint
  double k_offset_w = 0.05;         // reward ramp width
  double dvfs_interval_s = 0.5;     // Delta_DVFS = 500 ms
  std::size_t steps_per_round = 100;  // T
  /// Optional extension (off in the paper): re-raise the exploration
  /// temperature to reheat_tau when the reward drops persistently — i.e.
  /// when the workload has shifted away from what the policy learned.
  bool drift_adaptation = false;
  rl::DriftConfig drift{};
  double reheat_tau = 0.45;
  /// Reward-poisoning attack (DESIGN.md §10): training rewards are
  /// multiplied by this before the agent records them, so a compromised
  /// device learns an inverted/garbled objective. Greedy evaluation stays
  /// honest — the attack corrupts learning, not measurement. 1 = honest.
  double reward_poison_scale = 1.0;
};

class PowerController final : public fed::FederatedClient {
 public:
  /// The device is non-owning and must outlive the controller. Any
  /// sim::CpuDevice works: the single-core Processor or the 4-core
  /// MulticoreProcessor.
  PowerController(ControllerConfig config, sim::CpuDevice* processor,
                  util::Rng rng);

  /// Returns the controller to the state the constructor leaves with this
  /// rng: a reset agent and drift monitor, and nothing observed yet. The
  /// config and the device stay; so does the storage of every buffer.
  void reset(util::Rng rng);

  /// One training interaction (one iteration of Algorithm 1's loop):
  /// observe state, sample an action from the softmax policy, execute it
  /// for one DVFS interval, compute the reward and record the transition.
  /// Returns the telemetry of the executed interval.
  sim::TelemetrySample step();

  /// Runs n training steps.
  void run_steps(std::size_t n);

  /// One greedy (evaluation) interaction: no exploration, no learning.
  sim::TelemetrySample greedy_step();

  // --- fed::FederatedClient --------------------------------------------
  void receive_global(std::span<const double> params) override;
  std::vector<double> local_parameters() const override;
  void copy_local_parameters_to(std::vector<double>& out) const override;
  void run_local_round() override { run_steps(config_.steps_per_round); }
  std::size_t local_sample_count() const override;

  // --- access ------------------------------------------------------------
  rl::NeuralBanditAgent& agent() noexcept { return agent_; }
  const rl::NeuralBanditAgent& agent() const noexcept { return agent_; }
  sim::CpuDevice& device() noexcept { return *processor_; }
  const rl::PaperReward& reward() const noexcept { return reward_; }
  const rl::StateFeaturizer& featurizer() const noexcept {
    return featurizer_;
  }
  const ControllerConfig& config() const noexcept { return config_; }

  /// Reward of the most recent (training or greedy) step.
  double last_reward() const noexcept { return last_reward_; }

  /// Drift detections so far (0 unless drift_adaptation is enabled).
  std::size_t drift_detections() const noexcept {
    return drift_ ? drift_->detections() : 0;
  }

  /// Serializes the agent, the drift monitor (when enabled) and the
  /// observe/act bootstrap state (last telemetry sample + reward). The
  /// processor is snapshotted separately by whoever owns it.
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

 private:
  template <class Self, class Io> static void fields(Self& s, Io& io);
  /// One step's state, built on the stack so a step allocates nothing.
  using Features = std::array<double, rl::StateFeaturizer::kStateDim>;

  const sim::TelemetrySample& observed_state();
  /// Forgets the last observation: the part of reset() the constructor
  /// shares (its agent and drift monitor are constructed reset).
  void reset_observation();

  ControllerConfig config_;       // lint: ckpt-skip(construction config, fixed for the run)
  sim::CpuDevice* processor_;     // lint: ckpt-skip(non-owning; the device owner snapshots it)
  rl::NeuralBanditAgent agent_;
  rl::StateFeaturizer featurizer_;  // lint: ckpt-skip(stateless projection of config constants)
  rl::PaperReward reward_;          // lint: ckpt-skip(stateless function of config constants)
  std::optional<rl::DriftMonitor> drift_;
  sim::TelemetrySample last_sample_{};
  bool have_state_ = false;
  double last_reward_ = 0.0;
};

}  // namespace fedpower::core
