// A diverged local model must stay visibly diverged through training. The
// nn kernels skip exact-zero terms, which is exact for finite operands; a
// non-finite weight still meets nonzero activations, so the damage spreads
// to the uploaded parameters and the server's non-finite screen rejects
// the upload instead of averaging it in.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "fed/federation.hpp"
#include "rl/neural_agent.hpp"
#include "util/rng.hpp"

namespace fedpower {
namespace {

rl::NeuralAgentConfig small_config() {
  rl::NeuralAgentConfig config;
  config.hidden_sizes = {8};
  config.replay_capacity = 64;
  config.batch_size = 16;
  return config;
}

/// Fills the replay with seeded transitions (no training updates fire:
/// optimize_interval exceeds the fill).
void fill_replay(rl::NeuralBanditAgent& agent, util::Rng& rng) {
  std::vector<double> state(agent.config().state_dim);
  for (std::size_t i = 0; i < 19; ++i) {
    for (double& s : state) s = rng.uniform(0.1, 1.0);
    agent.record(state, rng.uniform_index(agent.config().action_count),
                 rng.uniform(-1.0, 1.0));
  }
}

std::size_t non_finite_count(const std::vector<double>& values) {
  std::size_t n = 0;
  for (const double v : values) n += std::isfinite(v) ? 0 : 1;
  return n;
}

/// A client whose agent trains on its replay buffer each round; `poison`
/// replaces one first-layer weight with a non-finite value on receipt.
class AgentClient final : public fed::FederatedClient {
 public:
  AgentClient(std::uint64_t seed, double poison)
      : agent_(small_config(), util::Rng(seed)), poison_(poison) {
    util::Rng data(seed + 1);
    fill_replay(agent_, data);
  }

  void receive_global(std::span<const double> params) override {
    std::vector<double> local(params.begin(), params.end());
    if (!std::isfinite(poison_)) local[0] = poison_;
    agent_.set_parameters(local);
  }
  std::vector<double> local_parameters() const override {
    return agent_.parameters();
  }
  void run_local_round() override { agent_.train_step(); }

 private:
  rl::NeuralBanditAgent agent_;
  double poison_;
};

TEST(DivergedAgent, NonFiniteWeightSpreadsThroughATrainStep) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    rl::NeuralBanditAgent agent(small_config(), util::Rng(3));
    util::Rng data(4);
    fill_replay(agent, data);
    std::vector<double> params = agent.parameters();
    params[0] = bad;  // W1[0][0]: state feature 0 is never zero here
    agent.set_parameters(params);
    agent.train_step();
    // Beyond the poisoned weight itself: the forward pass carried it into
    // the outputs and the backward pass into other layers' gradients.
    EXPECT_GT(non_finite_count(agent.parameters()), 1u);
  }
}

TEST(DivergedAgent, ServerRejectsTheDivergedUpload) {
  AgentClient healthy(10, 0.0);
  AgentClient diverged(20, std::numeric_limits<double>::infinity());
  fed::InProcessTransport transport;
  fed::FederatedAveraging server({&healthy, &diverged}, &transport);
  rl::NeuralBanditAgent init(small_config(), util::Rng(30));
  server.initialize(init.parameters());
  const fed::RoundResult result = server.run_round();
  EXPECT_EQ(result.rejected, (std::vector<std::size_t>{1}));
  EXPECT_EQ(non_finite_count(server.global_model()), 0u);
}

}  // namespace
}  // namespace fedpower
