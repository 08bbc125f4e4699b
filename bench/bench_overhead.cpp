// §IV-C — Runtime overhead of the power controller.
//
// Paper figures (on a Cortex-A57 @ <= 1.479 GHz): 29 ms mean controller
// latency (5.9 % of the 500 ms control interval), 2.8 kB per model
// transfer, ~100 kB replay-buffer storage. We measure the same quantities
// on the build machine with google-benchmark; absolute times differ from
// the Jetson's, the static byte counts match exactly.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "baselines/collab_policy.hpp"
#include "baselines/profit.hpp"
#include "core/controller.hpp"
#include "fed/federation.hpp"
#include "nn/serialize.hpp"
#include "sim/processor.hpp"
#include "sim/splash2.hpp"

namespace {

using namespace fedpower;

rl::NeuralAgentConfig paper_agent_config() {
  return rl::NeuralAgentConfig{};  // Table I defaults
}

void BM_PolicyInference(benchmark::State& state) {
  rl::NeuralBanditAgent agent(paper_agent_config(), util::Rng{1});
  const std::vector<double> features = {0.5, 0.45, 0.55, 0.3, 0.4};
  std::vector<double> mu(agent.config().action_count);
  for (auto _ : state) {
    agent.predict(features, mu);
    benchmark::DoNotOptimize(mu.data());
  }
}
BENCHMARK(BM_PolicyInference);

void BM_ActionSelection(benchmark::State& state) {
  rl::NeuralBanditAgent agent(paper_agent_config(), util::Rng{2});
  const std::vector<double> features = {0.5, 0.45, 0.55, 0.3, 0.4};
  for (auto _ : state)
    benchmark::DoNotOptimize(agent.select_action(features));
}
BENCHMARK(BM_ActionSelection);

void BM_TrainStep(benchmark::State& state) {
  // One gradient update on a full 128-sample batch (the H-th step's work).
  rl::NeuralBanditAgent agent(paper_agent_config(), util::Rng{3});
  util::Rng env(4);
  const std::vector<double> features = {0.5, 0.45, 0.55, 0.3, 0.4};
  for (int i = 0; i < 512; ++i)
    agent.record(features, env.uniform_index(15), env.uniform(-1.0, 1.0));
  for (auto _ : state) benchmark::DoNotOptimize(agent.train_step());
}
BENCHMARK(BM_TrainStep);

void BM_FullControllerStep(benchmark::State& state) {
  // Inference + simulation interval + reward + record (+ amortized
  // training): the per-interval latency the paper's 29 ms refers to,
  // minus the real DVFS syscall.
  sim::ProcessorConfig proc_config;
  sim::Processor processor(proc_config, util::Rng{5});
  sim::SingleAppWorkload workload(*sim::splash2_app("fft"));
  processor.set_workload(&workload);
  core::ControllerConfig config;
  core::PowerController controller(config, &processor, util::Rng{6});
  for (auto _ : state) benchmark::DoNotOptimize(controller.step());
}
BENCHMARK(BM_FullControllerStep);

void BM_ModelSerialization(benchmark::State& state) {
  rl::NeuralBanditAgent agent(paper_agent_config(), util::Rng{7});
  const std::vector<double> params = agent.parameters();
  for (auto _ : state)
    benchmark::DoNotOptimize(nn::encode_parameters(params));
}
BENCHMARK(BM_ModelSerialization);

void BM_FederatedAggregation(benchmark::State& state) {
  // Server-side cost of one unweighted FedAvg step for N clients.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::vector<double>> models(n, std::vector<double>(687, 0.5));
  for (auto _ : state)
    benchmark::DoNotOptimize(fed::average_unweighted(models));
}
BENCHMARK(BM_FederatedAggregation)->Arg(2)->Arg(8)->Arg(32);

void BM_ProfitStep(benchmark::State& state) {
  // The tabular baseline's decision+update cost, for comparison.
  baselines::ProfitAgent agent(baselines::ProfitConfig{}, util::Rng{8});
  const std::vector<double> features = {0.5, 0.45, 0.8, 20.0};
  for (auto _ : state) {
    const std::size_t a = agent.select_action(features);
    agent.record(features, a, 0.5);
  }
}
BENCHMARK(BM_ProfitStep);

}  // namespace

int main(int argc, char** argv) {
  using namespace fedpower;
  std::printf("== SS IV-C: runtime overhead ==\n");
  std::printf("Paper: 29 ms controller latency (5.9%% of the 500 ms "
              "interval),\n2.8 kB per transfer, ~100 kB replay buffer.\n\n");

  const rl::NeuralAgentConfig agent_config;
  rl::NeuralBanditAgent agent(agent_config, util::Rng{1});
  const std::size_t payload = nn::payload_size(agent.param_count());
  const rl::ReplayBuffer buffer(agent_config.replay_capacity,
                                agent_config.state_dim);
  std::printf("static footprints:\n");
  std::printf("  policy network parameters : %zu\n", agent.param_count());
  std::printf("  bytes per model transfer  : %zu (%.2f kB; paper 2.8 kB)\n",
              payload, static_cast<double>(payload) / 1000.0);
  std::printf("  replay buffer storage     : %zu B (%.0f kB; paper ~100 kB)\n",
              buffer.storage_bytes(),
              static_cast<double>(buffer.storage_bytes()) / 1000.0);
  const baselines::ProfitConfig profit_config;
  std::printf("  CollabPolicy table upload : %zu B per round (for contrast)\n",
              baselines::policy_table_bytes(
                  baselines::profit_discretizer(profit_config)
                      .state_count()));
  std::printf("\nlatency microbenchmarks (build machine, not Cortex-A57):\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
