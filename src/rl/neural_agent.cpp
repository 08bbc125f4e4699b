#include "rl/neural_agent.hpp"

#include <algorithm>
#include <cmath>

#include "ckpt/fields.hpp"
#include "nn/matrix.hpp"
#include "rl/policy.hpp"

namespace fedpower::rl {

NeuralBanditAgent::NeuralBanditAgent(NeuralAgentConfig config, util::Rng rng)
    : config_(config),
      rng_(rng),
      model_(nn::make_mlp(config.state_dim, config.hidden_sizes,
                          config.action_count, rng_, nn::Init::kZero)),
      loss_(config.huber_delta),
      optimizer_(config.learning_rate),
      replay_(config.replay_capacity, config.state_dim),
      tau_schedule_(config.tau_max, config.tau_decay, config.tau_min) {
  FEDPOWER_EXPECTS(config.state_dim > 0);
  FEDPOWER_EXPECTS(config.action_count > 0);
  FEDPOWER_EXPECTS(config.batch_size > 0);
  FEDPOWER_EXPECTS(config.optimize_interval > 0);
  FEDPOWER_EXPECTS(config.prox_mu >= 0.0);
  reset(rng);
}

void NeuralBanditAgent::reset(util::Rng rng) {
  // The weights are left as they are: with the init pending, every read
  // of them redraws the He init from pending_init_ first.
  pending_init_ = rng;
  rng_ = rng;
  // Leave rng_ where an eager He init would have left it.
  rng_.skip_normals(nn::init_normal_count(
      config_.state_dim, config_.hidden_sizes, config_.action_count));
  // What training grew is freed, so a lazy fleet's spare does not carry
  // a past owner's training storage into every later owner.
  model_.release_workspaces();
  optimizer_.release();
  if (updates_ > 0) {
    replay_.release();
  } else {
    replay_.clear();
  }
  batch_states_ = nn::Matrix();
  batch_actions_ = {};
  batch_rewards_ = {};
  pulled_values_ = {};
  loss_grad_ = {};
  params_ = {};
  grads_ = {};
  global_anchor_.clear();
  step_ = 0;
  updates_ = 0;
  last_loss_ = 0.0;
}

void NeuralBanditAgent::materialize() const {
  if (!pending_init_) return;
  model_ = nn::make_mlp(config_.state_dim, config_.hidden_sizes,
                        config_.action_count, *pending_init_);
  pending_init_.reset();
}

std::vector<double> NeuralBanditAgent::parameters() const {
  materialize();
  return model_.parameters();
}

void NeuralBanditAgent::copy_parameters_to(std::vector<double>& out) const {
  materialize();
  out.resize(model_.param_count());
  model_.copy_parameters_to(out);
}

void NeuralBanditAgent::predict(std::span<const double> state,
                                std::span<double> out) const {
  FEDPOWER_EXPECTS(state.size() == config_.state_dim);
  materialize();
  model_.forward_row(state, out);
}

std::size_t NeuralBanditAgent::select_action(std::span<const double> state) {
  values_.resize(config_.action_count);
  predict(state, values_);
  if (config_.exploration == ExplorationMode::kEpsilonGreedy) {
    const double epsilon = std::min(1.0, temperature());
    return epsilon_greedy(values_, epsilon, rng_);
  }
  return sample_softmax(values_, temperature(), rng_, values_);
}

std::size_t NeuralBanditAgent::greedy_action(
    std::span<const double> state) const {
  values_.resize(config_.action_count);
  predict(state, values_);
  return argmax(values_);
}

double NeuralBanditAgent::temperature() const noexcept {
  return tau_schedule_.value(step_);
}

void NeuralBanditAgent::record(std::span<const double> state,
                               std::size_t action, double reward) {
  FEDPOWER_EXPECTS(action < config_.action_count);
  replay_.push(state, action, reward);
  ++step_;  // Algorithm 1 line 9: the temperature decays once per step.
  if (step_ % config_.optimize_interval == 0) train_step();
}

double NeuralBanditAgent::train_step() {
  if (replay_.empty()) return 0.0;
  materialize();
  replay_.sample_into(config_.batch_size, rng_, batch_states_, batch_actions_,
                      batch_rewards_);

  // Only the pulled arm carries a target, so only its column is computed
  // and back-propagated.
  model_.forward_selected(batch_states_, batch_actions_, pulled_values_);
  const double loss =
      loss_.evaluate_selected(pulled_values_, batch_rewards_, loss_grad_);
  model_.zero_gradients();
  model_.backward_selected(batch_actions_, loss_grad_);

  params_.resize(model_.param_count());
  grads_.resize(model_.param_count());
  model_.copy_parameters_to(params_);
  model_.copy_gradients_to(grads_);
  if (config_.prox_mu > 0.0 && global_anchor_.size() == params_.size()) {
    // FedProx: + mu/2 * ||theta - theta_global||^2 added to the loss.
    for (std::size_t i = 0; i < params_.size(); ++i)
      grads_[i] += config_.prox_mu * (params_[i] - global_anchor_[i]);
  }
  optimizer_.step(params_, grads_);
  model_.set_parameters(params_);

  ++updates_;
  last_loss_ = loss;
  return loss;
}

void NeuralBanditAgent::reheat(double target_tau) {
  FEDPOWER_EXPECTS(target_tau > 0.0);
  if (config_.tau_decay <= 0.0) return;
  const double target =
      std::clamp(target_tau, config_.tau_min, config_.tau_max);
  // tau(step) = tau_max * exp(-decay * step)  =>  invert for step.
  const double step =
      std::log(config_.tau_max / target) / config_.tau_decay;
  step_ = static_cast<std::size_t>(std::max(0.0, step));
}

namespace {
constexpr ckpt::Tag kAgentTag{'A', 'G', 'N', 'T'};
/// AGNT with the parameters as floats: the layout of a model whose every
/// weight is float-exact, as a decoded broadcast that no update has moved
/// is.
constexpr ckpt::Tag kCompactAgentTag{'A', 'G', 'N', 'F'};
}  // namespace

template <class Self, class Io>
bool NeuralBanditAgent::fields(Self& s, Io& io, nn::ParamFormat format) {
  const bool compact =
      io.tag_of({kAgentTag, kCompactAgentTag},
                format == nn::ParamFormat::kF32, "bandit agent") == 1;
  format = compact ? nn::ParamFormat::kF32 : nn::ParamFormat::kF64;
  io.rng(s.rng_);
  io.expect_count(s.model_.param_count(), "model parameter(s)");
  if constexpr (Io::kLoad) {
    s.model_.read_parameters(io.in, format);
    s.pending_init_.reset();
  } else if (!s.model_.write_parameters(io.out, format)) {
    return false;  // a weight that is not float-exact
  }
  io.section(s.optimizer_);
  io.section(s.replay_);
  io.check(s.replay_.max_action() < s.config_.action_count,
           "replays an action this agent does not have");
  io.vec(s.global_anchor_);
  io.check(s.global_anchor_.empty() ||
               s.global_anchor_.size() == s.model_.param_count(),
           "FedProx anchor size does not match the model");
  io.u64(s.step_, s.updates_);
  io.f64(s.last_loss_);
  return true;
}

void NeuralBanditAgent::save_state(ckpt::Writer& out) const {
  materialize();
  // The float layout is tried first, written straight from the layers; a
  // weight that is not float-exact undoes it for the double one (AGNT),
  // which always succeeds. Either reads back bit for bit.
  const std::size_t start = out.size();
  ckpt::Save io(out);
  if (fields(*this, io, nn::ParamFormat::kF32)) return;
  out.truncate(start);
  fields(*this, io, nn::ParamFormat::kF64);
}

void NeuralBanditAgent::restore_state(ckpt::Reader& in) {
  ckpt::Load io(in);
  fields(*this, io, nn::ParamFormat::kF64);  // the tag read decides
}

void NeuralBanditAgent::set_parameters(std::span<const double> params) {
  model_.set_parameters(params);
  pending_init_.reset();
  // The incoming parameters are an average of several local models; the
  // optimizer's first/second-moment estimates were accumulated for the old
  // weights and pushing the fresh weights along those stale directions
  // destabilizes late training. Standard FedAvg clients restart optimizer
  // state each round.
  optimizer_.reset();
  if (config_.prox_mu > 0.0)
    global_anchor_.assign(params.begin(), params.end());
}

}  // namespace fedpower::rl
