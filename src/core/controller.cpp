#include "core/controller.hpp"

#include <cmath>

#include "ckpt/fields.hpp"

namespace fedpower::core {

PowerController::PowerController(ControllerConfig config,
                                 sim::CpuDevice* processor, util::Rng rng)
    : config_(config),
      processor_(processor),
      agent_(config.agent, rng),
      featurizer_(config.featurizer),
      reward_(config.p_crit_w, config.k_offset_w,
              config.featurizer.f_max_mhz) {
  FEDPOWER_EXPECTS(processor != nullptr);
  FEDPOWER_EXPECTS(config.agent.action_count == processor->vf_table().size());
  FEDPOWER_EXPECTS(config.dvfs_interval_s > 0.0);
  FEDPOWER_EXPECTS(std::isfinite(config.reward_poison_scale));
  if (config.drift_adaptation) drift_.emplace(config.drift);
  reset_observation();
}

void PowerController::reset(util::Rng rng) {
  agent_.reset(rng);
  if (drift_) drift_->reset();
  reset_observation();
}

void PowerController::reset_observation() {
  last_sample_ = sim::TelemetrySample{};
  have_state_ = false;
  last_reward_ = 0.0;
}

const sim::TelemetrySample& PowerController::observed_state() {
  if (!have_state_) {
    // Bootstrap: observe one interval at the current operating point before
    // the first decision, so the agent has a state s_1 to act on.
    last_sample_ = processor_->run_interval(config_.dvfs_interval_s);
    have_state_ = true;
  }
  return last_sample_;
}

sim::TelemetrySample PowerController::step() {
  Features features;
  featurizer_.featurize_into(observed_state(), features);
  const std::size_t action = agent_.select_action(features);
  processor_->set_level(action);
  const sim::TelemetrySample sample =
      processor_->run_interval(config_.dvfs_interval_s);
  last_reward_ = reward_(sample);
  // Poisoned devices record a scaled reward but report the honest one via
  // last_reward(): the attack corrupts what the agent learns from, not the
  // experiment's measurements.
  agent_.record(features, action,
                last_reward_ * config_.reward_poison_scale);
  if (drift_ && drift_->observe(last_reward_))
    agent_.reheat(config_.reheat_tau);
  last_sample_ = sample;
  return sample;
}

void PowerController::run_steps(std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) step();
}

sim::TelemetrySample PowerController::greedy_step() {
  Features features;
  featurizer_.featurize_into(observed_state(), features);
  const std::size_t action = agent_.greedy_action(features);
  processor_->set_level(action);
  const sim::TelemetrySample sample =
      processor_->run_interval(config_.dvfs_interval_s);
  last_reward_ = reward_(sample);
  last_sample_ = sample;
  return sample;
}

void PowerController::receive_global(std::span<const double> params) {
  agent_.set_parameters(params);
}

std::vector<double> PowerController::local_parameters() const {
  return agent_.parameters();
}

void PowerController::copy_local_parameters_to(
    std::vector<double>& out) const {
  agent_.copy_parameters_to(out);
}

std::size_t PowerController::local_sample_count() const {
  return agent_.replay().size();
}

namespace {

constexpr ckpt::Tag kControllerTag{'C', 'T', 'R', 'L'};

/// The telemetry sample's fields, in byte order.
template <class Sample, class Io>
void sample_fields(Sample& x, Io& io) {
  io.f64(x.time_s);
  io.u64(x.level);
  io.f64(x.freq_mhz, x.voltage_v, x.power_w, x.true_power_w, x.energy_j,
         x.instructions, x.cycles, x.ipc, x.miss_rate, x.mpki, x.ips,
         x.temperature_c);
  io.str(x.app_name);
}

}  // namespace

template <class Self, class Io>
void PowerController::fields(Self& s, Io& io) {
  io.tag(kControllerTag, "power controller");
  io.section(s.agent_);
  io.expect_flag(s.drift_.has_value(), "drift-adaptation flag");
  if (s.drift_) io.section(*s.drift_);
  io.u8(s.have_state_);
  sample_fields(s.last_sample_, io);
  io.f64(s.last_reward_);
}

FEDPOWER_CKPT_FIELDS(PowerController)

}  // namespace fedpower::core
