// Learning-behaviour properties of the power controller on the simulated
// processor: does the agent actually find per-application optimal
// frequencies, and does the exploration schedule behave as Algorithm 1
// prescribes?
#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "rl/policy.hpp"
#include "sim/processor.hpp"
#include "sim/splash2.hpp"
#include "sim/workload.hpp"
#include "util/stats.hpp"

namespace fedpower::core {
namespace {

struct TrainedRig {
  sim::ProcessorConfig proc_config;
  sim::Processor processor;
  sim::SingleAppWorkload workload;
  PowerController controller;

  TrainedRig(const std::string& app, std::size_t steps, std::uint64_t seed)
      : proc_config(),
        processor(proc_config, util::Rng{seed}),
        workload(*sim::splash2_app(app)),
        controller(fast_controller_config(), &processor,
                   util::Rng{seed + 1}) {
    processor.set_workload(&workload);
    controller.run_steps(steps);
  }

  static ControllerConfig fast_controller_config() {
    ControllerConfig config;
    config.agent.tau_decay = 0.003;  // converge within ~1500 steps
    return config;
  }

  /// Greedy level for the steady state reached while running this app.
  std::size_t greedy_level() {
    const sim::TelemetrySample sample = controller.greedy_step();
    return sample.level;
  }
};

TEST(Learning, FindsHighFrequencyForMemoryBoundApp) {
  TrainedRig rig("radix", 1500, 1);
  // radix is safe at f_max; the learned greedy level must be near the top.
  std::size_t level = 0;
  for (int i = 0; i < 5; ++i) level = rig.greedy_level();
  EXPECT_GE(level, 12u);
}

TEST(Learning, ThrottlesComputeBoundApp) {
  TrainedRig rig("water-ns", 1500, 2);
  std::size_t level = 14;
  util::RunningStats power;
  for (int i = 0; i < 10; ++i) {
    level = rig.greedy_level();
    power.add(rig.controller.last_reward());
  }
  // water-ns violates the budget above ~level 8; the policy must throttle.
  EXPECT_LE(level, 9u);
  EXPECT_GE(level, 5u);
}

TEST(Learning, SteadyStateRewardIsNearOptimum) {
  TrainedRig rig("lu", 1500, 3);
  util::RunningStats reward;
  for (int i = 0; i < 20; ++i) {
    rig.controller.greedy_step();
    reward.add(rig.controller.last_reward());
  }
  // The analytic optimum for lu is ~0.56 (level 7, 825.6 MHz); the learned
  // policy should be within ~20% of it and must not violate.
  EXPECT_GT(reward.mean(), 0.4);
  EXPECT_LT(reward.mean(), 0.75);
}

TEST(Learning, ViolationRateDropsOverTraining) {
  sim::ProcessorConfig proc_config;
  sim::Processor processor(proc_config, util::Rng{4});
  sim::SingleAppWorkload workload(*sim::splash2_app("water-sp"));
  processor.set_workload(&workload);
  ControllerConfig config = TrainedRig::fast_controller_config();
  PowerController controller(config, &processor, util::Rng{5});

  std::size_t early_violations = 0;
  for (int i = 0; i < 200; ++i) {
    const sim::TelemetrySample s = controller.step();
    if (s.true_power_w > 0.6) ++early_violations;
  }
  controller.run_steps(1200);
  std::size_t late_violations = 0;
  for (int i = 0; i < 200; ++i) {
    const sim::TelemetrySample s = controller.step();
    if (s.true_power_w > 0.6) ++late_violations;
  }
  EXPECT_LT(late_violations, early_violations);
}

TEST(Learning, PredictedRewardsApproachObservedRewards) {
  TrainedRig rig("fft", 1500, 6);
  // In the converged regime the chosen action's predicted reward must track
  // the realized reward.
  util::RunningStats error;
  for (int i = 0; i < 20; ++i) {
    const sim::TelemetrySample before = rig.controller.greedy_step();
    const auto features = rig.controller.featurizer().featurize(before);
    std::vector<double> mu(rig.controller.agent().config().action_count);
    rig.controller.agent().predict(features, mu);
    const std::size_t a = rl::argmax(mu);
    const sim::TelemetrySample after = rig.controller.greedy_step();
    (void)a;
    error.add(std::abs(mu[after.level] - rig.controller.last_reward()));
  }
  EXPECT_LT(error.mean(), 0.25);
}

TEST(Learning, TemperatureDecaysDuringTraining) {
  TrainedRig rig("barnes", 800, 7);
  EXPECT_LT(rig.controller.agent().temperature(), 0.1);
  EXPECT_GE(rig.controller.agent().temperature(), 0.01);
}

TEST(Learning, AveragedModelOfTwoSpecialistsGeneralizes) {
  // Miniature federation argument: average the weights of two agents
  // trained on opposite workload types and check the averaged policy is
  // sane on both (no constraint violations at the greedy level).
  TrainedRig mem("radix", 1500, 8);
  TrainedRig cpu("water-ns", 1500, 9);
  std::vector<double> avg = mem.controller.local_parameters();
  const std::vector<double> other = cpu.controller.local_parameters();
  for (std::size_t i = 0; i < avg.size(); ++i)
    avg[i] = 0.5 * (avg[i] + other[i]);

  // Install the averaged model on both devices, then fine-tune briefly
  // (one federated round's worth) as FedAvg clients would.
  mem.controller.receive_global(avg);
  cpu.controller.receive_global(avg);
  mem.controller.run_steps(100);
  cpu.controller.run_steps(100);

  util::RunningStats mem_reward;
  util::RunningStats cpu_reward;
  for (int i = 0; i < 10; ++i) {
    mem.controller.greedy_step();
    mem_reward.add(mem.controller.last_reward());
    cpu.controller.greedy_step();
    cpu_reward.add(cpu.controller.last_reward());
  }
  EXPECT_GT(mem_reward.mean(), 0.3);
  EXPECT_GT(cpu_reward.mean(), 0.3);
}

}  // namespace
}  // namespace fedpower::core
