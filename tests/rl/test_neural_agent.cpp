#include "rl/neural_agent.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "rl/policy.hpp"

namespace fedpower::rl {
namespace {

/// The agent's predictions for one state, as a vector.
std::vector<double> predicted(const NeuralBanditAgent& agent,
                              std::span<const double> state) {
  std::vector<double> out(agent.config().action_count);
  agent.predict(state, out);
  return out;
}

NeuralAgentConfig small_config() {
  NeuralAgentConfig config;
  config.state_dim = 3;
  config.action_count = 4;
  config.hidden_sizes = {8};
  config.replay_capacity = 256;
  config.batch_size = 32;
  config.optimize_interval = 5;
  return config;
}

TEST(NeuralAgent, PaperConfigParamCount) {
  NeuralAgentConfig config;  // defaults are Table I
  NeuralBanditAgent agent(config, util::Rng{1});
  EXPECT_EQ(agent.param_count(), 687u);
}

TEST(NeuralAgent, PredictReturnsOneValuePerAction) {
  NeuralBanditAgent agent(small_config(), util::Rng{2});
  EXPECT_EQ(predicted(agent, std::vector<double>{0.1, 0.2, 0.3}).size(), 4u);
}

TEST(NeuralAgent, TemperatureStartsAtMaxAndDecays) {
  NeuralBanditAgent agent(small_config(), util::Rng{3});
  EXPECT_DOUBLE_EQ(agent.temperature(), 0.9);
  const std::vector<double> state = {0.1, 0.2, 0.3};
  for (int i = 0; i < 100; ++i) agent.record(state, 0, 0.5);
  EXPECT_LT(agent.temperature(), 0.9);
}

TEST(NeuralAgent, RecordTriggersTrainingEveryH) {
  NeuralBanditAgent agent(small_config(), util::Rng{4});
  const std::vector<double> state = {0.1, 0.2, 0.3};
  for (int i = 0; i < 4; ++i) agent.record(state, 1, 0.5);
  EXPECT_EQ(agent.update_count(), 0u);
  agent.record(state, 1, 0.5);  // 5th step, H = 5
  EXPECT_EQ(agent.update_count(), 1u);
  for (int i = 0; i < 5; ++i) agent.record(state, 1, 0.5);
  EXPECT_EQ(agent.update_count(), 2u);
}

TEST(NeuralAgent, TrainStepOnEmptyBufferIsNoop) {
  NeuralBanditAgent agent(small_config(), util::Rng{5});
  const std::vector<double> before = agent.parameters();
  EXPECT_DOUBLE_EQ(agent.train_step(), 0.0);
  EXPECT_EQ(agent.parameters(), before);
  EXPECT_EQ(agent.update_count(), 0u);
}

TEST(NeuralAgent, LearnsActionValuesInFixedState) {
  // Contextual-bandit sanity: in a single state with rewards fixed per
  // action, the greedy action must converge to the best one.
  NeuralAgentConfig config = small_config();
  config.tau_decay = 0.003;
  NeuralBanditAgent agent(config, util::Rng{6});
  const std::vector<double> state = {0.5, 0.5, 0.5};
  const std::vector<double> action_rewards = {0.1, 0.9, 0.3, -0.5};
  for (int t = 0; t < 2000; ++t) {
    const std::size_t a = agent.select_action(state);
    agent.record(state, a, action_rewards[a]);
  }
  EXPECT_EQ(agent.greedy_action(state), 1u);
  const auto mu = predicted(agent, state);
  EXPECT_NEAR(mu[1], 0.9, 0.15);
}

TEST(NeuralAgent, LearnsStateDependentPolicy) {
  // Two states with opposite optimal actions — this is what tabular
  // approaches struggle with and NNs generalize over. Data is collected
  // with uniform random actions so every (state, action) pair is densely
  // covered and the test isolates the representation question from the
  // exploration schedule.
  NeuralAgentConfig config = small_config();
  config.replay_capacity = 4096;
  NeuralBanditAgent agent(config, util::Rng{7});
  const std::vector<double> s0 = {0.0, 0.2, 0.9};
  const std::vector<double> s1 = {1.0, 0.8, 0.1};
  const std::vector<double> rewards_s0 = {1.0, 0.6, 0.3, 0.0};
  const std::vector<double> rewards_s1 = {0.0, 0.3, 0.6, 1.0};
  util::Rng env(8);
  for (int t = 0; t < 3000; ++t) {
    const bool in_s0 = env.bernoulli(0.5);
    const auto& s = in_s0 ? s0 : s1;
    const std::size_t a = env.uniform_index(4);
    agent.record(s, a, (in_s0 ? rewards_s0 : rewards_s1)[a]);
  }
  EXPECT_EQ(agent.greedy_action(s0), 0u);
  EXPECT_EQ(agent.greedy_action(s1), 3u);
  // And the value estimates themselves separate the states.
  EXPECT_NEAR(predicted(agent, s0)[0], 1.0, 0.2);
  EXPECT_NEAR(predicted(agent, s1)[0], 0.0, 0.2);
}

TEST(NeuralAgent, GreedyIsArgmaxOfPredict) {
  NeuralBanditAgent agent(small_config(), util::Rng{9});
  const std::vector<double> state = {0.3, -0.2, 0.8};
  EXPECT_EQ(agent.greedy_action(state), argmax(predicted(agent, state)));
}

TEST(NeuralAgent, ParametersRoundTripThroughFederationInterface) {
  NeuralBanditAgent a(small_config(), util::Rng{10});
  NeuralBanditAgent b(small_config(), util::Rng{11});
  b.set_parameters(a.parameters());
  const std::vector<double> state = {0.1, 0.9, 0.4};
  EXPECT_EQ(predicted(a, state), predicted(b, state));
}

TEST(NeuralAgent, SelectActionExploresAtHighTemperature) {
  NeuralAgentConfig config = small_config();
  config.tau_decay = 0.0;  // stay at tau_max
  NeuralBanditAgent agent(config, util::Rng{12});
  const std::vector<double> state = {0.5, 0.5, 0.5};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 2000; ++i) ++counts[agent.select_action(state)];
  for (const int c : counts) EXPECT_GT(c, 100);  // all actions explored
}

TEST(NeuralAgent, LossDecreasesOnStationaryProblem) {
  NeuralAgentConfig config = small_config();
  NeuralBanditAgent agent(config, util::Rng{13});
  const std::vector<double> state = {0.5, 0.5, 0.5};
  util::Rng env(14);
  for (int i = 0; i < 64; ++i)
    agent.record(state, env.uniform_index(4), 0.7);
  const double early = agent.train_step();
  for (int i = 0; i < 400; ++i) agent.train_step();
  const double late = agent.train_step();
  EXPECT_LT(late, early);
  EXPECT_LT(late, 0.01);
}

TEST(NeuralAgent, ReplayBufferFillsAndCaps) {
  NeuralAgentConfig config = small_config();
  NeuralBanditAgent agent(config, util::Rng{15});
  const std::vector<double> state = {0.1, 0.2, 0.3};
  for (int i = 0; i < 300; ++i) agent.record(state, 0, 0.0);
  EXPECT_EQ(agent.replay().size(), 256u);
  EXPECT_EQ(agent.step_count(), 300u);
}

TEST(NeuralAgent, ProxTermPullsTowardAnchor) {
  // With a huge prox coefficient, training barely moves parameters away
  // from the installed global model.
  NeuralAgentConfig free_config = small_config();
  NeuralAgentConfig prox_config = small_config();
  prox_config.prox_mu = 100.0;
  NeuralBanditAgent free_agent(free_config, util::Rng{16});
  NeuralBanditAgent prox_agent(prox_config, util::Rng{16});
  const std::vector<double> anchor = free_agent.parameters();
  prox_agent.set_parameters(anchor);
  free_agent.set_parameters(anchor);
  const std::vector<double> state = {0.5, 0.5, 0.5};
  util::Rng env(17);
  for (int i = 0; i < 200; ++i) {
    const std::size_t a = env.uniform_index(4);
    free_agent.record(state, a, 1.0);
    prox_agent.record(state, a, 1.0);
  }
  double free_drift = 0.0;
  double prox_drift = 0.0;
  const auto fp = free_agent.parameters();
  const auto pp = prox_agent.parameters();
  for (std::size_t i = 0; i < anchor.size(); ++i) {
    free_drift += std::abs(fp[i] - anchor[i]);
    prox_drift += std::abs(pp[i] - anchor[i]);
  }
  EXPECT_LT(prox_drift, free_drift);
}

// --- deferred weight init ----------------------------------------------------
//
// The agent defers its He init to the first read of the weights. The
// eager reference below is what construction used to do: make_mlp on the
// agent's stream, then every later draw from the same stream.

std::vector<double> probe_state(int step) {
  const double x = 0.1 * static_cast<double>(step);
  return {std::sin(x), std::cos(x), 0.5 - x, x * x - 1.0, 0.25};
}

TEST(NeuralAgentDeferredInit, ActsAndPredictsLikeAnEagerReference) {
  const NeuralAgentConfig config;  // Table I: 5 -> 32 -> 15
  for (const std::uint64_t seed : {1ULL, 7ULL, 2026ULL}) {
    SCOPED_TRACE(seed);
    util::Rng reference_rng(seed);
    nn::Mlp reference =
        nn::make_mlp(config.state_dim, config.hidden_sizes,
                     config.action_count, reference_rng);
    EXPECT_EQ(NeuralBanditAgent(config, util::Rng{seed}).parameters(),
              reference.parameters());

    NeuralBanditAgent agent(config, util::Rng{seed});
    std::vector<double> probs;
    for (int step = 0; step < 30; ++step) {
      const std::vector<double> state = probe_state(step);
      const nn::Matrix row = nn::Matrix::row_vector(state);
      const std::vector<double> expected = reference.forward(row).data();
      // The first read is select_action; predict and greedy_action follow.
      if (step % 3 == 1) {
        EXPECT_EQ(predicted(agent, state), expected);
      } else if (step % 3 == 2) {
        EXPECT_EQ(agent.greedy_action(state), argmax(expected));
      }
      EXPECT_EQ(agent.select_action(state),
                sample_softmax(expected, agent.temperature(), reference_rng,
                               probs))
          << step;
    }
    EXPECT_EQ(agent.parameters(), reference.parameters());
  }
}

TEST(NeuralAgentDeferredInit, TrainsLikeAnAgentInitializedEagerly) {
  for (const bool broadcast_first : {false, true}) {
    SCOPED_TRACE(broadcast_first ? "set_parameters first" : "train first");
    NeuralBanditAgent deferred(small_config(), util::Rng{21});
    NeuralBanditAgent eager(small_config(), util::Rng{21});
    (void)eager.parameters();  // materializes the init up front
    if (broadcast_first) {
      // A federated device's usual first touch: the broadcast overwrites
      // the weights, so the deferred init never runs.
      std::vector<double> global(deferred.param_count());
      for (std::size_t i = 0; i < global.size(); ++i)
        global[i] = 0.01 * static_cast<double>(i % 17) - 0.08;
      deferred.set_parameters(global);
      eager.set_parameters(global);
    }
    util::Rng env(22);
    for (int step = 0; step < 40; ++step) {
      const std::vector<double> state = {env.uniform(), env.uniform(),
                                         env.uniform()};
      const std::size_t action = deferred.select_action(state);
      ASSERT_EQ(eager.select_action(state), action) << step;
      const double reward = env.uniform();
      deferred.record(state, action, reward);
      eager.record(state, action, reward);
    }
    EXPECT_EQ(deferred.update_count(), 8u);
    EXPECT_EQ(deferred.parameters(), eager.parameters());
    ckpt::Writer a, b;
    deferred.save_state(a);
    eager.save_state(b);
    EXPECT_EQ(a.data(), b.data());
  }
}

TEST(NeuralAgentDeferredInit, CopyCarriesThePendingInit) {
  const NeuralBanditAgent original(small_config(), util::Rng{23});
  NeuralBanditAgent copy = original;
  const std::vector<double> state = {0.2, 0.4, 0.6};
  EXPECT_EQ(predicted(copy, state), predicted(original, state));
  EXPECT_EQ(copy.parameters(), original.parameters());
}

TEST(NeuralAgentDeferredInit, RestoreReplacesThePendingInit) {
  NeuralBanditAgent source(small_config(), util::Rng{24});
  const std::vector<double> state = {0.3, 0.1, 0.7};
  for (int i = 0; i < 12; ++i) source.record(state, 2, 0.4);
  ckpt::Writer out;
  source.save_state(out);

  NeuralBanditAgent target(small_config(), util::Rng{25});  // other init
  ckpt::Reader in(out.data());
  target.restore_state(in);
  EXPECT_EQ(target.parameters(), source.parameters());
  EXPECT_EQ(predicted(target, state), predicted(source, state));
}

TEST(NeuralAgentDeathTest, RejectsWrongStateSize) {
  NeuralBanditAgent agent(small_config(), util::Rng{18});
  EXPECT_DEATH(predicted(agent, std::vector<double>{0.1}), "precondition");
}

TEST(NeuralAgentDeathTest, RejectsOutOfRangeAction) {
  NeuralBanditAgent agent(small_config(), util::Rng{19});
  EXPECT_DEATH(agent.record(std::vector<double>{0.1, 0.2, 0.3}, 4, 0.0),
               "precondition");
}

}  // namespace
}  // namespace fedpower::rl
