// Bit-identity goldens for the local-training path. Each test hashes the raw
// f64 bytes of a trained model and compares the hash with the value the
// reference implementation produced. Kernel rewrites (in-place workspaces,
// zero-term skipping, multi-accumulator loops) must keep every summation in
// its original order, so these hashes must never move; a change here is a
// behaviour change, not a refactor.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "rl/neural_agent.hpp"
#include "rl/neural_q_agent.hpp"
#include "sim/splash2.hpp"
#include "util/rng.hpp"

namespace fedpower {
namespace {

/// FNV-1a over the raw bytes of the values, in order.
std::uint64_t raw_bytes_hash(const std::vector<double>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    unsigned char bytes[sizeof(double)];
    std::memcpy(bytes, &v, sizeof(double));
    for (const unsigned char b : bytes) {
      hash ^= b;
      hash *= 0x100000001b3ULL;
    }
  }
  return hash;
}

/// Table I agent and Table II scenario 1, as the paper runs them.
std::vector<double> committed_model(std::size_t threads) {
  core::ExperimentConfig config;
  config.rounds = 20;
  config.seed = 5;
  config.num_threads = threads;
  const auto result =
      core::run_federated(config, core::resolve(core::table2_scenarios()[0]),
                          sim::splash2_suite(), true);
  return result.global_params;
}

constexpr std::uint64_t kCommittedModelGolden = 0x8765966e362941a8ULL;
constexpr std::uint64_t kBanditAgentGolden = 0x99933b8bee5253d5ULL;
constexpr std::uint64_t kQAgentGolden = 0x83c1587d44f2c3eaULL;

TEST(TrainingGoldens, CommittedModelOneThread) {
  const std::vector<double> params = committed_model(1);
  ASSERT_EQ(params.size(), 687u);
  const std::uint64_t hash = raw_bytes_hash(params);
  EXPECT_EQ(hash, kCommittedModelGolden) << std::hex << hash;
}

TEST(TrainingGoldens, CommittedModelFourThreads) {
  const std::uint64_t hash = raw_bytes_hash(committed_model(4));
  EXPECT_EQ(hash, kCommittedModelGolden) << std::hex << hash;
}

TEST(TrainingGoldens, BanditAgentAfterFiftyTrainSteps) {
  rl::NeuralBanditAgent agent(rl::NeuralAgentConfig{}, util::Rng(21));
  util::Rng data(22);
  std::vector<double> state(agent.config().state_dim);
  for (std::size_t i = 0; i < agent.config().replay_capacity; ++i) {
    for (double& s : state) s = data.uniform();
    agent.record(state, data.uniform_index(agent.config().action_count),
                 data.uniform(-1.0, 1.0));
  }
  ASSERT_EQ(agent.replay().size(), agent.config().replay_capacity);
  for (int i = 0; i < 50; ++i) agent.train_step();
  const std::uint64_t hash = raw_bytes_hash(agent.parameters());
  EXPECT_EQ(hash, kBanditAgentGolden) << std::hex << hash;
}

TEST(TrainingGoldens, QAgentAfterFiftyTrainSteps) {
  rl::NeuralQAgent agent(rl::NeuralQConfig{}, util::Rng(31));
  util::Rng data(32);
  const rl::NeuralAgentConfig& base = agent.config().base;
  std::vector<double> state(base.state_dim);
  std::vector<double> next(base.state_dim);
  for (std::size_t i = 0; i < base.replay_capacity; ++i) {
    for (double& s : state) s = data.uniform();
    for (double& s : next) s = data.uniform();
    agent.record(state, data.uniform_index(base.action_count),
                 data.uniform(-1.0, 1.0), next);
  }
  for (int i = 0; i < 50; ++i) agent.train_step();
  const std::uint64_t hash = raw_bytes_hash(agent.parameters());
  EXPECT_EQ(hash, kQAgentGolden) << std::hex << hash;
}

}  // namespace
}  // namespace fedpower
