#include "core/controller.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "sim/processor.hpp"
#include "sim/splash2.hpp"
#include "sim/workload.hpp"

namespace fedpower::core {
namespace {

ControllerConfig fast_config() {
  ControllerConfig config;
  config.agent.replay_capacity = 512;
  config.agent.optimize_interval = 10;
  return config;
}

struct Rig {
  sim::ProcessorConfig proc_config{};
  sim::Processor processor;
  sim::SingleAppWorkload workload;
  PowerController controller;

  explicit Rig(const std::string& app, std::uint64_t seed = 1,
               ControllerConfig config = fast_config())
      : processor(proc_config, util::Rng{seed}),
        workload(*sim::splash2_app(app)),
        controller(config, &processor, util::Rng{seed + 1}) {
    processor.set_workload(&workload);
  }
};

TEST(PowerController, StepExecutesOneInterval) {
  Rig rig("fft");
  const double t0 = rig.processor.time_s();
  rig.controller.step();
  // Bootstrap observation + one action interval = 2 * 0.5 s.
  EXPECT_DOUBLE_EQ(rig.processor.time_s(), t0 + 1.0);
  rig.controller.step();
  EXPECT_DOUBLE_EQ(rig.processor.time_s(), t0 + 1.5);
}

TEST(PowerController, RecordsIntoReplayBuffer) {
  Rig rig("fft");
  rig.controller.run_steps(10);
  EXPECT_EQ(rig.controller.agent().replay().size(), 10u);
  EXPECT_EQ(rig.controller.agent().step_count(), 10u);
}

TEST(PowerController, LocalRoundRunsConfiguredSteps) {
  ControllerConfig config = fast_config();
  config.steps_per_round = 25;
  Rig rig("lu", 2, config);
  rig.controller.run_local_round();
  EXPECT_EQ(rig.controller.agent().step_count(), 25u);
  EXPECT_EQ(rig.controller.local_sample_count(), 25u);
}

TEST(PowerController, RewardMatchesEquation4) {
  Rig rig("radix");
  const sim::TelemetrySample sample = rig.controller.step();
  const double expected =
      rig.controller.reward().evaluate(sample.freq_mhz, sample.power_w);
  EXPECT_DOUBLE_EQ(rig.controller.last_reward(), expected);
}

TEST(PowerController, FederationInterfaceRoundTrips) {
  Rig a("fft", 3);
  Rig b("lu", 4);
  const std::vector<double> params = a.controller.local_parameters();
  b.controller.receive_global(params);
  EXPECT_EQ(b.controller.local_parameters(), params);
}

TEST(PowerController, GreedyStepDoesNotLearn) {
  Rig rig("ocean");
  rig.controller.run_steps(5);
  const std::size_t steps = rig.controller.agent().step_count();
  const auto params = rig.controller.local_parameters();
  rig.controller.greedy_step();
  rig.controller.greedy_step();
  EXPECT_EQ(rig.controller.agent().step_count(), steps);
  EXPECT_EQ(rig.controller.local_parameters(), params);
}

TEST(PowerController, TrainingChangesParameters) {
  ControllerConfig config = fast_config();
  config.agent.optimize_interval = 5;
  Rig rig("barnes", 5, config);
  const auto before = rig.controller.local_parameters();
  rig.controller.run_steps(20);
  EXPECT_NE(rig.controller.local_parameters(), before);
}

TEST(PowerController, SelectsDifferentLevelsWhileExploring) {
  Rig rig("cholesky", 6);
  std::set<std::size_t> levels;
  for (int i = 0; i < 40; ++i) {
    const sim::TelemetrySample sample = rig.controller.step();
    levels.insert(sample.level);
  }
  EXPECT_GT(levels.size(), 5u);  // high-temperature softmax explores widely
}

TEST(PowerController, LocalSampleCountTracksReplaySize) {
  Rig rig("fmm", 7);
  EXPECT_EQ(rig.controller.local_sample_count(), 0u);
  rig.controller.run_steps(3);
  EXPECT_EQ(rig.controller.local_sample_count(), 3u);
}

TEST(PowerController, ResetMatchesAFreshController) {
  // A controller that trained (updates fired, drift adaptation and the
  // FedProx anchor armed) and is then reset must equal one constructed
  // with the reset's rng: in its state bytes, and as it trains on.
  ControllerConfig config = fast_config();
  config.agent.optimize_interval = 3;
  config.agent.batch_size = 8;
  config.agent.prox_mu = 0.1;
  config.drift_adaptation = true;
  config.drift.warmup = 2;
  Rig used("fft", 1, config);
  used.controller.receive_global(used.controller.local_parameters());
  used.controller.run_steps(25);
  ASSERT_GT(used.controller.agent().update_count(), 0u);

  // Rig seeds its processor with `seed` and its controller with seed + 1.
  used.processor.reset(util::Rng{41});
  used.controller.reset(util::Rng{42});
  Rig fresh("fft", 41, config);
  const auto state = [](const PowerController& controller) {
    ckpt::Writer out;
    controller.save_state(out);
    return out.take();
  };
  EXPECT_EQ(state(used.controller), state(fresh.controller));
  used.controller.run_steps(10);
  fresh.controller.run_steps(10);
  EXPECT_EQ(state(used.controller), state(fresh.controller));
  EXPECT_EQ(used.controller.drift_detections(),
            fresh.controller.drift_detections());
}

TEST(PowerControllerDeathTest, ActionCountMustMatchVfLevels) {
  sim::ProcessorConfig proc_config;
  sim::Processor processor(proc_config, util::Rng{8});
  ControllerConfig config = fast_config();
  config.agent.action_count = 7;  // Jetson table has 15
  EXPECT_DEATH(PowerController(config, &processor, util::Rng{9}),
               "precondition");
}

TEST(PowerControllerDeathTest, RejectsNullProcessor) {
  EXPECT_DEATH(PowerController(fast_config(), nullptr, util::Rng{10}),
               "precondition");
}

}  // namespace
}  // namespace fedpower::core
