// Greedy policy evaluation on a fresh simulated device. Used after (or
// between) training rounds, exactly as the paper does: "During evaluation,
// the policies are not updated and the agents consistently exploit the
// action with the highest predicted reward" (§IV-A).
//
// The evaluator is policy-agnostic: any technique — the neural policy,
// Profit, CollabPolicy, a classic governor — is evaluated through the same
// PolicyFn, so the Table III / Fig. 5 comparisons measure nothing but the
// policy itself.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "sim/application.hpp"
#include "sim/processor.hpp"

namespace fedpower::core {

/// Maps the telemetry of the previous interval to the next V/f level.
using PolicyFn = std::function<std::size_t(const sim::TelemetrySample&)>;

struct EvalConfig {
  sim::ProcessorConfig processor{};
  double dvfs_interval_s = 0.5;
  /// Intervals per reward-measurement episode (fixed-length evaluation).
  std::size_t episode_intervals = 60;
  /// Wall-clock cap when running an application to completion.
  double completion_timeout_s = 900.0;
};

struct EvalResult {
  std::string app;
  double mean_reward = 0.0;
  double mean_power_w = 0.0;
  double mean_freq_mhz = 0.0;
  double stddev_freq_mhz = 0.0;
  double mean_ips = 0.0;
  double violation_rate = 0.0;   ///< fraction of intervals above P_crit
  double exec_time_s = 0.0;      ///< only set when run to completion
  double energy_j = 0.0;         ///< only set when run to completion
  double edp = 0.0;              ///< energy-delay product [J*s], completion
  std::size_t intervals = 0;
  bool completed = false;        ///< app finished within the timeout
};

class Evaluator {
 public:
  Evaluator(ControllerConfig config, EvalConfig eval);

  /// Fixed-length greedy episode of the given policy on one application.
  EvalResult run_episode(const PolicyFn& policy, const sim::AppProfile& app,
                         std::uint64_t seed) const;

  /// Runs the application to completion under the given policy and reports
  /// execution time / IPS / power (the Table III metrics).
  EvalResult run_to_completion(const PolicyFn& policy,
                               const sim::AppProfile& app,
                               std::uint64_t seed) const;

  /// Greedy episode over a *sequence* of applications, switching every
  /// segment_intervals control intervals (each switch aborts the running
  /// app). Returns one EvalResult per segment, in order — the per-segment
  /// rewards around the boundaries measure how quickly a policy adapts to
  /// workload changes at runtime.
  std::vector<EvalResult> run_switching_episode(
      const PolicyFn& policy, const std::vector<sim::AppProfile>& apps,
      std::size_t segment_intervals, std::uint64_t seed) const;

  /// Greedy policy function for a neural model given its flat parameters.
  /// It may be called from several threads at once.
  PolicyFn neural_policy(std::span<const double> params) const;

  const ControllerConfig& controller_config() const noexcept {
    return config_;
  }
  const EvalConfig& eval_config() const noexcept { return eval_; }

 private:
  EvalResult run(const PolicyFn& policy, const sim::AppProfile& app,
                 std::uint64_t seed, bool to_completion) const;

  ControllerConfig config_;
  EvalConfig eval_;
};

}  // namespace fedpower::core
