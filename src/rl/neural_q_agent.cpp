#include "rl/neural_q_agent.hpp"

#include <algorithm>

#include "ckpt/fields.hpp"
#include "nn/matrix.hpp"
#include "rl/policy.hpp"

namespace fedpower::rl {

NeuralQAgent::NeuralQAgent(NeuralQConfig config, util::Rng rng)
    : config_(config),
      rng_(rng),
      online_(nn::make_mlp(config.base.state_dim, config.base.hidden_sizes,
                           config.base.action_count, rng_)),
      target_(online_),
      loss_(config.base.huber_delta),
      optimizer_(config.base.learning_rate),
      replay_(config.base.replay_capacity, config.base.state_dim,
              /*successors=*/true),
      tau_(config.base.tau_max, config.base.tau_decay, config.base.tau_min) {
  FEDPOWER_EXPECTS(config.gamma >= 0.0 && config.gamma < 1.0);
  FEDPOWER_EXPECTS(config.target_sync_interval > 0);
}

void NeuralQAgent::predict(std::span<const double> state,
                           std::span<double> out) const {
  FEDPOWER_EXPECTS(state.size() == config_.base.state_dim);
  online_.forward_row(state, out);
}

std::size_t NeuralQAgent::select_action(std::span<const double> state) {
  values_.resize(config_.base.action_count);
  predict(state, values_);
  return sample_softmax(values_, temperature(), rng_, values_);
}

std::size_t NeuralQAgent::greedy_action(
    std::span<const double> state) const {
  values_.resize(config_.base.action_count);
  predict(state, values_);
  return argmax(values_);
}

void NeuralQAgent::record(std::span<const double> state, std::size_t action,
                          double reward,
                          std::span<const double> next_state) {
  FEDPOWER_EXPECTS(action < config_.base.action_count);
  replay_.push(state, action, reward, next_state);
  ++step_;
  if (step_ % config_.base.optimize_interval == 0) train_step();
}

double NeuralQAgent::train_step() {
  if (replay_.empty()) return 0.0;
  // batch_targets_ receives the rewards and becomes the targets in place.
  const std::size_t count =
      replay_.sample_into(config_.base.batch_size, rng_, batch_states_,
                          batch_actions_, batch_targets_, &batch_next_states_);

  // Bootstrapped targets from the frozen target network.
  const nn::Matrix& next_q = target_.forward(batch_next_states_);
  for (std::size_t r = 0; r < count; ++r) {
    double best = next_q(r, 0);
    for (std::size_t a = 1; a < config_.base.action_count; ++a)
      best = std::max(best, next_q(r, a));
    batch_targets_[r] += config_.gamma * best;
  }

  // The target network needs every action for its max; the online network
  // trains on the taken action's column only.
  online_.forward_selected(batch_states_, batch_actions_, pulled_values_);
  const double loss =
      loss_.evaluate_selected(pulled_values_, batch_targets_, loss_grad_);
  online_.zero_gradients();
  online_.backward_selected(batch_actions_, loss_grad_);
  params_.resize(online_.param_count());
  grads_.resize(online_.param_count());
  online_.copy_parameters_to(params_);
  online_.copy_gradients_to(grads_);
  optimizer_.step(params_, grads_);
  online_.set_parameters(params_);

  ++updates_;
  // The target network only ever runs forward, so syncing its parameters
  // is a full sync.
  if (updates_ % config_.target_sync_interval == 0)
    target_.set_parameters(params_);
  last_loss_ = loss;
  return loss;
}

namespace {
constexpr ckpt::Tag kQAgentTag{'Q', 'A', 'G', 'T'};
}  // namespace

template <class Self, class Io>
void NeuralQAgent::fields(Self& s, Io& io) {
  io.tag(kQAgentTag, "Q agent");
  io.rng(s.rng_);
  // Each network's parameters as a counted run of doubles.
  for (auto* network : {&s.online_, &s.target_}) {
    io.expect_count(network->param_count(), "network parameter(s)");
    if constexpr (Io::kLoad)
      network->read_parameters(io.in, nn::ParamFormat::kF64);
    else
      network->write_parameters(io.out, nn::ParamFormat::kF64);
  }
  io.section(s.optimizer_);
  io.section(s.replay_);
  io.check(s.replay_.max_action() < s.config_.base.action_count,
           "replays an action this agent does not have");
  io.u64(s.step_, s.updates_);
  io.f64(s.last_loss_);
}

FEDPOWER_CKPT_FIELDS(NeuralQAgent)

void NeuralQAgent::set_parameters(std::span<const double> params) {
  online_.set_parameters(params);
  target_.set_parameters(params);
  optimizer_.reset();
}

}  // namespace fedpower::rl
