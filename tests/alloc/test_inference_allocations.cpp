// Allocation gate for inference: acting runs the network through the
// workspace-free row forward (nn::Mlp::forward_row) into buffers the agent
// or the caller already holds, so a warm select_action, greedy_action or
// predict allocates nothing, on either agent; and a greedy evaluation
// episode allocates per episode, never per interval.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc/alloc_counter.hpp"
#include "core/evaluate.hpp"
#include "rl/neural_agent.hpp"
#include "rl/neural_q_agent.hpp"
#include "sim/splash2.hpp"
#include "util/rng.hpp"

namespace fedpower {
namespace {

using alloc_test::allocation_count;
using alloc_test::set_counting;

/// Allocations made by 50 calls of each of the agent's three acting calls,
/// after one warm-up call of each.
template <class Agent>
std::uint64_t acting_allocations(Agent& agent, std::size_t actions) {
  const std::vector<double> state = {0.5, 0.45, 0.55, 0.3, 0.4};
  std::vector<double> values(actions);
  volatile std::size_t sink = 0;  // keeps the calls observable
  const auto act = [&] {
    sink = agent.select_action(state);
    sink = agent.greedy_action(state);
    agent.predict(state, values);
  };
  act();
  set_counting(true);
  const std::uint64_t before = allocation_count();
  for (int i = 0; i < 50; ++i) act();
  const std::uint64_t allocated = allocation_count() - before;
  set_counting(false);
  return allocated;
}

TEST(InferenceAllocations, WarmActingAllocatesNothing) {
  const rl::NeuralAgentConfig config;  // Table I
  rl::NeuralBanditAgent bandit(config, util::Rng{4});
  EXPECT_EQ(acting_allocations(bandit, config.action_count), 0u);
  rl::NeuralAgentConfig greedy_config = config;
  greedy_config.exploration = rl::ExplorationMode::kEpsilonGreedy;
  rl::NeuralBanditAgent epsilon(greedy_config, util::Rng{5});
  EXPECT_EQ(acting_allocations(epsilon, config.action_count), 0u);
  rl::NeuralQAgent q(rl::NeuralQConfig{}, util::Rng{6});
  EXPECT_EQ(acting_allocations(q, config.action_count), 0u);
}

TEST(InferenceAllocations, EvaluationEpisodeAllocatesPerEpisodeOnly) {
  // An app long enough that no run completes inside either episode (a
  // completion is recorded, which allocates), so the two episodes differ
  // in their intervals alone.
  const sim::AppProfile app = sim::splash2_suite()[0].scaled(1000.0);
  const auto episode_allocations = [&](std::size_t intervals) {
    core::EvalConfig eval;
    eval.episode_intervals = intervals;
    const core::Evaluator evaluator(core::ControllerConfig{}, eval);
    const rl::NeuralBanditAgent agent(rl::NeuralAgentConfig{},
                                      util::Rng{7});
    const core::PolicyFn policy = evaluator.neural_policy(agent.parameters());
    (void)evaluator.run_episode(policy, app, 1);  // warm
    set_counting(true);
    const std::uint64_t before = allocation_count();
    const core::EvalResult result = evaluator.run_episode(policy, app, 2);
    const std::uint64_t allocated = allocation_count() - before;
    set_counting(false);
    EXPECT_EQ(result.intervals, intervals);
    EXPECT_FALSE(result.completed);
    return allocated;
  };
  EXPECT_EQ(episode_allocations(120), episode_allocations(60));
}

}  // namespace
}  // namespace fedpower
