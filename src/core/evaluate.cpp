#include "core/evaluate.hpp"

#include <array>
#include <memory>

#include "nn/mlp.hpp"
#include "rl/policy.hpp"
#include "sim/workload.hpp"
#include "util/stats.hpp"

namespace fedpower::core {

Evaluator::Evaluator(ControllerConfig config, EvalConfig eval)
    : config_(config), eval_(eval) {
  FEDPOWER_EXPECTS(eval.dvfs_interval_s > 0.0);
  FEDPOWER_EXPECTS(eval.episode_intervals > 0);
  FEDPOWER_EXPECTS(eval.completion_timeout_s > 0.0);
}

PolicyFn Evaluator::neural_policy(std::span<const double> params) const {
  // A fresh model instance shaped like the controller's network, holding a
  // snapshot of the given parameters. The all-zero init draws nothing and
  // is overwritten at once.
  auto rng = util::Rng{0};
  auto model = std::make_shared<nn::Mlp>(
      nn::make_mlp(config_.agent.state_dim, config_.agent.hidden_sizes,
                   config_.agent.action_count, rng, nn::Init::kZero));
  model->set_parameters(params);
  const rl::StateFeaturizer featurizer(config_.featurizer);
  // The row forward is const and keeps no workspace, so the policy may run
  // on several threads at once; each keeps its action values in its own
  // scratch, and an interval allocates nothing.
  return [model, featurizer, actions = config_.agent.action_count](
             const sim::TelemetrySample& sample) {
    std::array<double, rl::StateFeaturizer::kStateDim> features;
    featurizer.featurize_into(sample, features);
    thread_local std::vector<double> mu;
    mu.resize(actions);
    model->forward_row(features, mu);
    return rl::argmax(mu);
  };
}

EvalResult Evaluator::run(const PolicyFn& policy, const sim::AppProfile& app,
                          std::uint64_t seed, bool to_completion) const {
  sim::Processor processor(eval_.processor, util::Rng{seed});
  sim::SingleAppWorkload workload(app);
  processor.set_workload(&workload);

  const rl::PaperReward reward(config_.p_crit_w, config_.k_offset_w,
                               config_.featurizer.f_max_mhz);

  util::RunningStats reward_stats;
  util::RunningStats power_stats;
  util::RunningStats freq_stats;
  util::RunningStats ips_stats;
  std::size_t violations = 0;

  // Bootstrap observation at the lowest level (safe default).
  processor.set_level(0);
  sim::TelemetrySample sample =
      processor.run_interval(eval_.dvfs_interval_s);

  EvalResult result;
  result.app = app.name;

  const std::size_t max_intervals =
      to_completion
          ? static_cast<std::size_t>(eval_.completion_timeout_s /
                                     eval_.dvfs_interval_s)
          : eval_.episode_intervals;

  for (std::size_t i = 0; i < max_intervals; ++i) {
    processor.set_level(policy(sample));
    sample = processor.run_interval(eval_.dvfs_interval_s);
    reward_stats.add(reward(sample));
    power_stats.add(sample.power_w);
    freq_stats.add(sample.freq_mhz);
    ips_stats.add(sample.ips);
    if (sample.true_power_w > config_.p_crit_w) ++violations;
    ++result.intervals;
    if (to_completion && !processor.completed_runs().empty()) {
      const sim::AppExecution& done = processor.completed_runs().front();
      result.exec_time_s = done.exec_time_s;
      result.energy_j = done.energy_j;
      result.edp = done.energy_j * done.exec_time_s;
      result.mean_ips = done.avg_ips;
      result.completed = true;
      break;
    }
  }

  result.mean_reward = reward_stats.mean();
  result.mean_power_w = power_stats.mean();
  result.mean_freq_mhz = freq_stats.mean();
  result.stddev_freq_mhz = freq_stats.stddev();
  if (!result.completed) result.mean_ips = ips_stats.mean();
  result.violation_rate =
      result.intervals > 0
          ? static_cast<double>(violations) /
                static_cast<double>(result.intervals)
          : 0.0;
  return result;
}

std::vector<EvalResult> Evaluator::run_switching_episode(
    const PolicyFn& policy, const std::vector<sim::AppProfile>& apps,
    std::size_t segment_intervals, std::uint64_t seed) const {
  FEDPOWER_EXPECTS(!apps.empty());
  FEDPOWER_EXPECTS(segment_intervals > 0);
  sim::Processor processor(eval_.processor, util::Rng{seed});
  const rl::PaperReward reward(config_.p_crit_w, config_.k_offset_w,
                               config_.featurizer.f_max_mhz);

  processor.set_level(0);
  // One workload object per segment; the processor's pointer is swapped at
  // each boundary and the in-flight app is aborted, modeling a context
  // switch to a different program.
  std::vector<EvalResult> results;
  results.reserve(apps.size());
  sim::TelemetrySample sample{};
  bool have_state = false;
  for (const sim::AppProfile& app : apps) {
    sim::SingleAppWorkload workload(app);
    processor.set_workload(&workload);
    processor.reset_app();
    if (!have_state) {
      sample = processor.run_interval(eval_.dvfs_interval_s);
      have_state = true;
    }
    EvalResult segment;
    segment.app = app.name;
    util::RunningStats reward_stats;
    util::RunningStats power_stats;
    util::RunningStats freq_stats;
    util::RunningStats ips_stats;
    std::size_t violations = 0;
    for (std::size_t i = 0; i < segment_intervals; ++i) {
      processor.set_level(policy(sample));
      sample = processor.run_interval(eval_.dvfs_interval_s);
      reward_stats.add(reward(sample));
      power_stats.add(sample.power_w);
      freq_stats.add(sample.freq_mhz);
      ips_stats.add(sample.ips);
      if (sample.true_power_w > config_.p_crit_w) ++violations;
      ++segment.intervals;
    }
    segment.mean_reward = reward_stats.mean();
    segment.mean_power_w = power_stats.mean();
    segment.mean_freq_mhz = freq_stats.mean();
    segment.stddev_freq_mhz = freq_stats.stddev();
    segment.mean_ips = ips_stats.mean();
    segment.violation_rate =
        static_cast<double>(violations) /
        static_cast<double>(segment.intervals);
    results.push_back(std::move(segment));
  }
  return results;
}

EvalResult Evaluator::run_episode(const PolicyFn& policy,
                                  const sim::AppProfile& app,
                                  std::uint64_t seed) const {
  return run(policy, app, seed, /*to_completion=*/false);
}

EvalResult Evaluator::run_to_completion(const PolicyFn& policy,
                                        const sim::AppProfile& app,
                                        std::uint64_t seed) const {
  return run(policy, app, seed, /*to_completion=*/true);
}

}  // namespace fedpower::core
