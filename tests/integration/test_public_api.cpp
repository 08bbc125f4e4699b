// Public-API smoke test: everything a downstream user reaches through the
// umbrella header works together in one translation unit — the compile
// test for the README's promises.
#include "fedpower.hpp"

#include <gtest/gtest.h>

namespace fedpower {
namespace {

TEST(PublicApi, UmbrellaHeaderCoversEverySubsystem) {
  // util
  util::Rng rng(1);
  util::RunningStats stats;
  stats.add(rng.uniform());
  std::istringstream ini("x = 1\n");
  EXPECT_EQ(util::Config::parse(ini).get_int("x", 0), 1);

  // nn
  nn::Mlp mlp = nn::make_mlp(5, {32}, 15, rng);
  const auto payload = nn::encode_parameters(mlp.parameters());
  EXPECT_EQ(nn::decode_parameters(payload).size(), mlp.param_count());

  // sim
  sim::Processor processor(sim::ProcessorConfig{}, util::Rng{2});
  sim::SingleAppWorkload workload(*sim::splash2_app("fft"));
  processor.set_workload(&workload);
  processor.set_level(7);
  const sim::TelemetrySample sample = processor.run_interval(0.5);
  EXPECT_GT(sample.true_power_w, 0.0);
  sim::MulticoreProcessor multicore(
      sim::MulticoreConfig::jetson_nano_4core(), util::Rng{3});
  EXPECT_EQ(multicore.core_count(), 4u);
  util::Rng gen(4);
  EXPECT_EQ(sim::generate_suite(3, "g", {}, gen).size(), 3u);

  // rl
  rl::NeuralBanditAgent agent(rl::NeuralAgentConfig{}, util::Rng{5});
  rl::StateFeaturizer featurizer;
  const auto features = featurizer.featurize(sample);
  EXPECT_LT(agent.greedy_action(features), 15u);
  rl::DriftMonitor drift;
  drift.observe(0.5);
  rl::NeuralQAgent q_agent(rl::NeuralQConfig{}, util::Rng{6});
  EXPECT_EQ(q_agent.param_count(), agent.param_count());

  // baselines
  baselines::ProfitAgent profit(baselines::ProfitConfig{}, util::Rng{7});
  EXPECT_LT(profit.greedy_action(
                baselines::profit_features(sample, 1479.0)),
            15u);

  // core + fed, end to end (tiny).
  core::ExperimentConfig experiment;
  experiment.rounds = 2;
  experiment.controller.steps_per_round = 10;
  experiment.eval.episode_intervals = 5;
  const auto result = core::run_federated(
      experiment, core::resolve(core::table2_scenarios()[0]),
      sim::splash2_suite(), true);
  EXPECT_EQ(result.devices.size(), 2u);
  EXPECT_EQ(result.global_params.size(), agent.param_count());
}

TEST(PublicApi, FederationVariantsShareTheClientInterface) {
  // One controller instance can be wrapped by every decorator the library
  // ships and driven by the round driver.
  sim::Processor processor(sim::ProcessorConfig{}, util::Rng{8});
  sim::SingleAppWorkload workload(*sim::splash2_app("lu"));
  processor.set_workload(&workload);
  core::ControllerConfig config;
  config.steps_per_round = 5;
  core::PowerController controller(config, &processor, util::Rng{9});

  const std::size_t total = controller.agent().param_count();
  fed::PersonalizedClient personalized(
      &controller, fed::shared_body_mask(total, 495));
  fed::DpConfig dp;
  dp.clip_norm = 1.0;
  fed::DpClient private_client(&personalized, dp);

  sim::Processor peer_proc(sim::ProcessorConfig{}, util::Rng{10});
  sim::SingleAppWorkload peer_workload(*sim::splash2_app("radix"));
  peer_proc.set_workload(&peer_workload);
  core::PowerController peer(config, &peer_proc, util::Rng{11});

  fed::InProcessTransport transport;
  fed::FederatedAveraging sync_server({&private_client, &peer}, &transport);
  sync_server.initialize(controller.local_parameters());
  sync_server.run(2);
  EXPECT_EQ(sync_server.rounds_completed(), 2u);
}

}  // namespace
}  // namespace fedpower
