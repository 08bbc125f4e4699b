// Full Q-learning agent with bootstrapping and a target network (DQN-style)
// — the ablation counterpart to the paper's contextual bandit.
//
// The paper argues (§III-A, footnote 2) that the DVFS problem needs no
// credit assignment across timesteps: the effect of a frequency choice is
// fully visible in the next interval's power, so regressing the immediate
// reward suffices. This agent implements the alternative the paper rejects
// — targets r + gamma * max_a' Q_target(s', a') — so the claim can be
// tested empirically (bench_ablation_gamma). With gamma = 0 it degenerates
// to the bandit objective.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/neural_agent.hpp"
#include "rl/replay_buffer.hpp"
#include "rl/schedule.hpp"
#include "util/rng.hpp"

namespace fedpower::rl {

struct NeuralQConfig {
  /// Network/training hyperparameters (shared with the bandit agent).
  NeuralAgentConfig base{};
  /// Discount factor; 0 recovers the bandit objective.
  double gamma = 0.9;
  /// Gradient updates between target-network synchronizations.
  std::size_t target_sync_interval = 25;
};

class NeuralQAgent {
 public:
  NeuralQAgent(NeuralQConfig config, util::Rng rng);

  std::size_t select_action(std::span<const double> state);
  std::size_t greedy_action(std::span<const double> state) const;
  /// The online network's values for every action, into out
  /// (action_count values).
  void predict(std::span<const double> state, std::span<double> out) const;

  /// Records a full transition (s, a, r, s'); advances the temperature
  /// schedule and trains every optimize_interval steps.
  void record(std::span<const double> state, std::size_t action,
              double reward, std::span<const double> next_state);

  /// One gradient update against the target network; returns batch loss.
  double train_step();

  // Federation interface (same contract as the bandit agent).
  std::vector<double> parameters() const { return online_.parameters(); }
  void set_parameters(std::span<const double> params);
  std::size_t param_count() const noexcept { return online_.param_count(); }

  /// Checkpointing; same contract as NeuralBanditAgent, plus the frozen
  /// target network's parameters.
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

  double temperature() const noexcept { return tau_.value(step_); }
  std::size_t step_count() const noexcept { return step_; }
  std::size_t update_count() const noexcept { return updates_; }
  double last_loss() const noexcept { return last_loss_; }
  const NeuralQConfig& config() const noexcept { return config_; }

 private:
  template <class Self, class Io> static void fields(Self& s, Io& io);

  NeuralQConfig config_;
  mutable util::Rng rng_;
  nn::Mlp online_;
  nn::Mlp target_;
  nn::HuberLoss loss_;  // lint: ckpt-skip(stateless functor of the config delta)
  nn::Adam optimizer_;
  ReplayBuffer replay_;  // with successors
  ExponentialDecay tau_;  // lint: ckpt-skip(pure function of step_; step_ is saved)
  std::size_t step_ = 0;
  std::size_t updates_ = 0;
  double last_loss_ = 0.0;

  // Buffers reused by every call (as in NeuralBanditAgent).
  /// One state's action values; select_action turns them into their
  /// softmax probabilities in place.
  mutable std::vector<double> values_;  // lint: ckpt-skip(scratch: action values)
  nn::Matrix batch_states_;  // lint: ckpt-skip(scratch: replay batch)
  nn::Matrix batch_next_states_;  // lint: ckpt-skip(scratch: batch)
  std::vector<std::size_t> batch_actions_;  // lint: ckpt-skip(scratch: batch)
  std::vector<double> batch_targets_;  // lint: ckpt-skip(scratch: batch)
  std::vector<double> pulled_values_;  // lint: ckpt-skip(scratch: pulled-arm predictions)
  std::vector<double> loss_grad_;  // lint: ckpt-skip(scratch: loss gradient)
  std::vector<double> params_;  // lint: ckpt-skip(scratch: Adam input)
  std::vector<double> grads_;   // lint: ckpt-skip(scratch: Adam input)
};

}  // namespace fedpower::rl
