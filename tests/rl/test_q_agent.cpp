#include "rl/neural_q_agent.hpp"

#include "rl/policy.hpp"

#include <gtest/gtest.h>

#include <span>
#include <vector>

namespace fedpower::rl {
namespace {

/// The agent's online-network values for one state, as a vector.
std::vector<double> predicted(const NeuralQAgent& agent,
                              std::span<const double> state) {
  std::vector<double> out(agent.config().base.action_count);
  agent.predict(state, out);
  return out;
}

NeuralQConfig small_config(double gamma = 0.9) {
  NeuralQConfig config;
  config.base.state_dim = 2;
  config.base.action_count = 2;
  config.base.hidden_sizes = {8};
  config.base.replay_capacity = 2048;
  config.base.batch_size = 32;
  config.base.optimize_interval = 4;
  config.gamma = gamma;
  return config;
}

TEST(QReplayBuffer, StoresSuccessorStates) {
  ReplayBuffer buffer(4, 2, /*successors=*/true);
  buffer.push(std::vector<double>{1.0, 2.0}, 1, 0.5,
              std::vector<double>{3.0, 4.0});
  const Transition t = buffer.at(0);
  EXPECT_EQ(t.state, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(t.next_state, (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(t.action, 1u);
  EXPECT_DOUBLE_EQ(t.reward, 0.5);
}

TEST(QReplayBuffer, EvictsOldest) {
  ReplayBuffer buffer(2, 1, /*successors=*/true);
  for (int i = 0; i < 4; ++i)
    buffer.push(std::vector<double>{static_cast<double>(i)}, 0, i,
                std::vector<double>{0.0});
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_DOUBLE_EQ(buffer.at(0).reward, 2.0);
  EXPECT_DOUBLE_EQ(buffer.at(1).reward, 3.0);
}

TEST(QReplayBuffer, SampleClampsToSize) {
  ReplayBuffer buffer(16, 1, /*successors=*/true);
  buffer.push(std::vector<double>{0.0}, 0, 0.0, std::vector<double>{0.0});
  util::Rng rng(1);
  EXPECT_EQ(buffer.sample(8, rng).size(), 1u);
}

TEST(QAgent, ParamCountMatchesBandit) {
  NeuralQConfig config;
  NeuralQAgent agent(config, util::Rng{1});
  EXPECT_EQ(agent.param_count(), 687u);
}

TEST(QAgent, GammaZeroLearnsImmediateRewards) {
  // gamma = 0: exactly the bandit objective.
  NeuralQAgent agent(small_config(0.0), util::Rng{2});
  const std::vector<double> s = {0.5, 0.5};
  const std::vector<double> rewards = {0.2, 0.8};
  util::Rng env(3);
  for (int t = 0; t < 1500; ++t) {
    const std::size_t a = env.uniform_index(2);
    agent.record(s, a, rewards[a], s);
  }
  EXPECT_EQ(agent.greedy_action(s), 1u);
  EXPECT_NEAR(predicted(agent, s)[1], 0.8, 0.15);
}

TEST(QAgent, BootstrapsValueThroughSuccessorStates) {
  // Two-state chain: s0 --any action--> s1 with reward 0;
  // s1 --any action--> s1 with reward 1. With gamma = 0.5 the value of
  // acting in s0 must approach 0 + 0.5 * V(s1) where V(s1) -> 2 (geometric
  // series 1/(1-gamma)).
  NeuralQConfig config = small_config(0.5);
  config.target_sync_interval = 5;
  NeuralQAgent agent(config, util::Rng{4});
  const std::vector<double> s0 = {0.0, 1.0};
  const std::vector<double> s1 = {1.0, 0.0};
  util::Rng env(5);
  for (int t = 0; t < 4000; ++t) {
    const bool in_s0 = env.bernoulli(0.5);
    const std::size_t a = env.uniform_index(2);
    if (in_s0)
      agent.record(s0, a, 0.0, s1);
    else
      agent.record(s1, a, 1.0, s1);
  }
  // V(s1) = 1 + 0.5 * V(s1) -> 2; Q(s0, a) = 0 + 0.5 * 2 = 1.
  EXPECT_NEAR(predicted(agent, s1)[agent.greedy_action(s1)], 2.0, 0.35);
  EXPECT_NEAR(predicted(agent, s0)[agent.greedy_action(s0)], 1.0, 0.35);
}

TEST(QAgent, TemperatureDecays) {
  NeuralQAgent agent(small_config(), util::Rng{6});
  EXPECT_DOUBLE_EQ(agent.temperature(), 0.9);
  const std::vector<double> s = {0.1, 0.2};
  for (int i = 0; i < 2000; ++i) agent.record(s, 0, 0.0, s);
  EXPECT_LT(agent.temperature(), 0.9);
}

TEST(QAgent, TrainingTriggersEveryInterval) {
  NeuralQAgent agent(small_config(), util::Rng{7});
  const std::vector<double> s = {0.1, 0.2};
  for (int i = 0; i < 3; ++i) agent.record(s, 0, 0.0, s);
  EXPECT_EQ(agent.update_count(), 0u);
  agent.record(s, 0, 0.0, s);
  EXPECT_EQ(agent.update_count(), 1u);
}

TEST(QAgent, FederationRoundTrip) {
  NeuralQAgent a(small_config(), util::Rng{8});
  NeuralQAgent b(small_config(), util::Rng{9});
  b.set_parameters(a.parameters());
  const std::vector<double> s = {0.4, 0.6};
  EXPECT_EQ(predicted(a, s), predicted(b, s));
}

TEST(QAgent, GreedyIsArgmax) {
  NeuralQAgent agent(small_config(), util::Rng{10});
  const std::vector<double> s = {0.9, 0.1};
  const auto q = predicted(agent, s);
  EXPECT_EQ(agent.greedy_action(s), argmax(q));
}

TEST(QAgentDeathTest, RejectsBadGamma) {
  NeuralQConfig config = small_config();
  config.gamma = 1.0;
  EXPECT_DEATH(NeuralQAgent(config, util::Rng{11}), "precondition");
}

}  // namespace
}  // namespace fedpower::rl
