// The neural contextual-bandit agent of the paper (Algorithm 1).
//
// A one-hidden-layer MLP mu(s, theta) estimates the expected immediate
// reward of every V/f level in the current state. Exploration samples
// actions from a softmax over the estimates with exponentially decaying
// temperature; training minimizes the Huber loss between the estimate for
// the taken action and the observed reward over replay-buffer batches, with
// Adam, every H interactions.
//
// Construction is cheap: the He init of the weights is deferred to their
// first read. The constructor advances the agent's RNG stream past the
// init draws without computing them (Rng::skip_normals) and keeps a copy
// of the stream from before them; the first read (forward, training,
// parameters(), save_state) replays make_mlp from that copy, so the
// weights and every later draw are bit-identical to an eager init. A
// federated device's first touch is usually set_parameters (the broadcast)
// or restore_state (hydration), which overwrite the weights and drop the
// pending init, so most devices never pay for it. reset() re-arms the
// pending init on the same storage, which is how a lazy fleet reuses a
// dehydrated device's agent for the next device it hydrates.
//
// Acting runs the network through nn::Mlp::forward_row, which keeps no
// per-layer workspace, so an agent that has only acted holds its weights
// and little else; the batch workspaces appear with the first update.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/replay_buffer.hpp"
#include "rl/schedule.hpp"
#include "util/rng.hpp"

namespace fedpower::rl {

/// How training-time actions are drawn from the reward predictions.
enum class ExplorationMode {
  kSoftmax,        ///< Boltzmann sampling with decaying temperature (paper)
  kEpsilonGreedy,  ///< epsilon-greedy with the same decay schedule (ablation)
};

/// Hyperparameters (defaults are the paper's Table I).
struct NeuralAgentConfig {
  std::size_t state_dim = 5;
  std::size_t action_count = 15;
  std::vector<std::size_t> hidden_sizes = {32};
  double learning_rate = 0.005;    // alpha
  double tau_max = 0.9;
  double tau_decay = 0.0005;
  double tau_min = 0.01;
  std::size_t replay_capacity = 4000;  // C
  std::size_t batch_size = 128;        // C_B
  std::size_t optimize_interval = 20;  // H
  double huber_delta = 1.0;
  /// FedProx-style proximal term strength; 0 disables it (plain FedAvg
  /// local training, as in the paper). Used only for the ablation bench.
  double prox_mu = 0.0;
  /// Exploration strategy. With kEpsilonGreedy the tau_* schedule fields
  /// are reinterpreted as the epsilon schedule (clamped to <= 1).
  ExplorationMode exploration = ExplorationMode::kSoftmax;
};

class NeuralBanditAgent {
 public:
  NeuralBanditAgent(NeuralAgentConfig config, util::Rng rng);

  /// Returns the agent to the state the constructor leaves with this rng
  /// (pending weight init, no optimizer moments, empty replay, no FedProx
  /// anchor, zero counters). It frees the storage that only training grows
  /// (layer gradients and workspaces, optimizer moments, batch buffers)
  /// and, when the agent had trained, its replay ring, so an agent reset
  /// for a new owner holds what a freshly built one holds; the ring of an
  /// agent that never trained keeps its few slots for the next pushes. The
  /// constructor ends with it.
  void reset(util::Rng rng);

  /// Softmax-explores an action for the given state (training behaviour).
  std::size_t select_action(std::span<const double> state);

  /// Greedy action (evaluation behaviour; no exploration, no learning).
  std::size_t greedy_action(std::span<const double> state) const;

  /// Predicted expected reward for every action in the given state, into
  /// out (action_count values).
  void predict(std::span<const double> state, std::span<double> out) const;

  /// Records the outcome of one interaction; advances the temperature
  /// schedule and triggers a training update every optimize_interval steps.
  void record(std::span<const double> state, std::size_t action,
              double reward);

  /// Runs one gradient update on a replay batch (no-op on empty buffer).
  /// Returns the batch loss (0 if skipped).
  double train_step();

  /// Rewinds the temperature schedule so that the current temperature
  /// becomes target_tau (clamped to [tau_min, tau_max]). Used by drift
  /// adaptation to re-explore after a workload change; a no-op when the
  /// schedule has zero decay.
  void reheat(double target_tau);

  // --- federation interface -------------------------------------------
  std::vector<double> parameters() const;
  /// parameters() into `out`, resized to param_count().
  void copy_parameters_to(std::vector<double>& out) const;
  void set_parameters(std::span<const double> params);
  std::size_t param_count() const noexcept { return model_.param_count(); }

  // --- checkpointing ----------------------------------------------------
  /// Serializes everything that evolves during training: the RNG stream,
  /// model parameters, optimizer moments, replay contents, FedProx anchor
  /// and step counters. Config/hyperparameters are not saved; a restored
  /// agent must be constructed from the same config.
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

  // --- inspection -------------------------------------------------------
  double temperature() const noexcept;
  std::size_t step_count() const noexcept { return step_; }
  std::size_t update_count() const noexcept { return updates_; }
  double last_loss() const noexcept { return last_loss_; }
  const ReplayBuffer& replay() const noexcept { return replay_; }
  const NeuralAgentConfig& config() const noexcept { return config_; }

 private:
  /// Runs the deferred weight init, if still pending. Every read of the
  /// weights calls it first.
  void materialize() const;
  /// The AGNT fields, or AGNF's with the weights as floats. Saving in the
  /// float layout returns false, its bytes part-written, at the first
  /// weight that is not float-exact; restoring follows the tag it reads.
  template <class Self, class Io>
  static bool fields(Self& s, Io& io, nn::ParamFormat format);

  NeuralAgentConfig config_;
  mutable util::Rng rng_;
  // Mutable: the weights materialize on their first read, which may be a
  // const one.
  mutable nn::Mlp model_;
  /// The stream as it stood before the init draws, while the init is
  /// pending; empty once the weights are materialized or overwritten.
  mutable std::optional<util::Rng> pending_init_;
  nn::HuberLoss loss_;  // lint: ckpt-skip(stateless functor of the config delta)
  nn::Adam optimizer_;
  ReplayBuffer replay_;
  ExponentialDecay tau_schedule_;  // lint: ckpt-skip(pure function of step_; step_ is saved)
  std::vector<double> global_anchor_;  // FedProx anchor (empty if unused)
  std::size_t step_ = 0;
  std::size_t updates_ = 0;
  double last_loss_ = 0.0;

  // Buffers reused by every call so the steady-state act and train paths
  // allocate nothing; none carries state from one call to the next.
  /// One state's action values; select_action turns them into their
  /// softmax probabilities in place.
  mutable std::vector<double> values_;  // lint: ckpt-skip(scratch: action values)
  nn::Matrix batch_states_;  // lint: ckpt-skip(scratch: replay batch)
  std::vector<std::size_t> batch_actions_;  // lint: ckpt-skip(scratch: batch)
  std::vector<double> batch_rewards_;  // lint: ckpt-skip(scratch: batch)
  std::vector<double> pulled_values_;  // lint: ckpt-skip(scratch: pulled-arm predictions)
  std::vector<double> loss_grad_;  // lint: ckpt-skip(scratch: loss gradient)
  std::vector<double> params_;  // lint: ckpt-skip(scratch: Adam input)
  std::vector<double> grads_;   // lint: ckpt-skip(scratch: Adam input)
};

}  // namespace fedpower::rl
