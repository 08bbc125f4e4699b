#include "core/controller.hpp"

#include <cmath>

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

void save_sample(ckpt::Writer& out, const sim::TelemetrySample& s) {
  out.f64(s.time_s);
  out.u64(s.level);
  out.f64(s.freq_mhz);
  out.f64(s.voltage_v);
  out.f64(s.power_w);
  out.f64(s.true_power_w);
  out.f64(s.energy_j);
  out.f64(s.instructions);
  out.f64(s.cycles);
  out.f64(s.ipc);
  out.f64(s.miss_rate);
  out.f64(s.mpki);
  out.f64(s.ips);
  out.f64(s.temperature_c);
  out.str(s.app_name);
}

sim::TelemetrySample restore_sample(ckpt::Reader& in) {
  sim::TelemetrySample s;
  s.time_s = in.f64();
  s.level = in.u64();
  s.freq_mhz = in.f64();
  s.voltage_v = in.f64();
  s.power_w = in.f64();
  s.true_power_w = in.f64();
  s.energy_j = in.f64();
  s.instructions = in.f64();
  s.cycles = in.f64();
  s.ipc = in.f64();
  s.miss_rate = in.f64();
  s.mpki = in.f64();
  s.ips = in.f64();
  s.temperature_c = in.f64();
  s.app_name = in.str();
  return s;
}

}  // namespace

void PowerController::save_state(ckpt::Writer& out) const {
  write_tag(out, kControllerTag);
  agent_.save_state(out);
  out.u8(drift_.has_value() ? 1 : 0);
  if (drift_) drift_->save_state(out);
  out.u8(have_state_ ? 1 : 0);
  save_sample(out, last_sample_);
  out.f64(last_reward_);
}

void PowerController::restore_state(ckpt::Reader& in) {
  expect_tag(in, kControllerTag, "power controller");
  agent_.restore_state(in);
  const bool had_drift = in.u8() != 0;
  if (had_drift != drift_.has_value())
    throw ckpt::StateMismatchError(
        "controller snapshot drift-adaptation flag does not match config");
  if (drift_) drift_->restore_state(in);
  have_state_ = in.u8() != 0;
  last_sample_ = restore_sample(in);
  last_reward_ = in.f64();
}

}  // namespace fedpower::core
