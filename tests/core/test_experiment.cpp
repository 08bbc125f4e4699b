#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/scenario.hpp"
#include "sim/splash2.hpp"

namespace fedpower::core {
namespace {

ExperimentConfig tiny_config() {
  ExperimentConfig config;
  config.rounds = 5;
  config.controller.steps_per_round = 20;
  config.eval.episode_intervals = 10;
  config.seed = 11;
  return config;
}

std::vector<std::vector<sim::AppProfile>> scenario2_apps() {
  return resolve(table2_scenarios()[1]);
}

TEST(Experiment, FederatedProducesCurvesPerDevice) {
  const auto result = run_federated(tiny_config(), scenario2_apps(),
                                    sim::splash2_suite(), true);
  ASSERT_EQ(result.devices.size(), 2u);
  EXPECT_EQ(result.devices[0].reward.size(), 5u);
  EXPECT_EQ(result.devices[1].mean_freq_mhz.size(), 5u);
  EXPECT_EQ(result.eval_app_per_round.size(), 5u);
  EXPECT_FALSE(result.global_params.empty());
}

TEST(Experiment, FederatedWithoutEvalSkipsCurves) {
  const auto result = run_federated(tiny_config(), scenario2_apps(),
                                    sim::splash2_suite(), false);
  EXPECT_TRUE(result.devices[0].reward.empty());
  EXPECT_FALSE(result.global_params.empty());
}

TEST(Experiment, EvalAppsCycleInSuiteOrder) {
  const auto result = run_federated(tiny_config(), scenario2_apps(),
                                    sim::splash2_suite(), true);
  const auto names = sim::splash2_names();
  for (std::size_t r = 0; r < result.eval_app_per_round.size(); ++r)
    EXPECT_EQ(result.eval_app_per_round[r], names[r % names.size()]);
}

TEST(Experiment, TrafficMatchesRoundsTimesClients) {
  ExperimentConfig config = tiny_config();
  const auto result = run_federated(config, scenario2_apps(),
                                    sim::splash2_suite(), false);
  // 2 clients * 5 rounds uplink+downlink transfers.
  EXPECT_EQ(result.traffic.uplink_transfers, 10u);
  EXPECT_EQ(result.traffic.downlink_transfers, 10u);
  EXPECT_NEAR(result.traffic.mean_transfer_bytes(), 2760.0, 1.0);
}

TEST(Experiment, LocalOnlyKeepsDevicesIndependent) {
  const auto result = run_local_only(tiny_config(), scenario2_apps(),
                                     sim::splash2_suite(), true);
  ASSERT_EQ(result.devices.size(), 2u);
  ASSERT_EQ(result.final_params.size(), 2u);
  EXPECT_NE(result.final_params[0], result.final_params[1]);
}

TEST(Experiment, ServeThroughputWithDefenseIsRejected) {
  // Throughput mode merges while the shards would screen; deterministic
  // mode runs the defense (CrashResume.DefendedServeResume* run it).
  ExperimentConfig config = tiny_config();
  config.serve.enabled = true;
  config.serve.deterministic = false;
  config.defense.enabled = true;
  try {
    (void)run_federated(config, scenario2_apps(), sim::splash2_suite(),
                        false);
    ADD_FAILURE() << "throughput + defense ran";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("serve.mode"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("defense.enabled"),
              std::string::npos);
  }
  // The check runs before anything is built: an empty fleet would
  // otherwise fail FleetRuntime's precondition and abort the process.
  EXPECT_THROW((void)run_federated(config, {}, sim::splash2_suite(), false),
               std::invalid_argument);
}

TEST(Experiment, FederatedIsDeterministicGivenSeed) {
  const auto a = run_federated(tiny_config(), scenario2_apps(),
                               sim::splash2_suite(), true);
  const auto b = run_federated(tiny_config(), scenario2_apps(),
                               sim::splash2_suite(), true);
  EXPECT_EQ(a.global_params, b.global_params);
  EXPECT_EQ(a.devices[0].reward, b.devices[0].reward);
}

TEST(Experiment, DifferentSeedsDiverge) {
  ExperimentConfig c1 = tiny_config();
  ExperimentConfig c2 = tiny_config();
  c2.seed = 999;
  const auto a = run_federated(c1, scenario2_apps(), sim::splash2_suite(),
                               false);
  const auto b = run_federated(c2, scenario2_apps(), sim::splash2_suite(),
                               false);
  EXPECT_NE(a.global_params, b.global_params);
}

TEST(Experiment, CollabProfitTrainsAndExposesPolicies) {
  const auto result = run_collab_profit(tiny_config(), scenario2_apps());
  ASSERT_EQ(result.clients.size(), 2u);
  // After training both clients have recorded experience.
  for (const auto& client : result.clients)
    EXPECT_EQ(client->local_agent().step_count(), 5u * 20u);
  // Policies are callable.
  const PolicyFn policy = result.policy(0, 1479.0);
  sim::TelemetrySample sample;
  sample.freq_mhz = 500.0;
  sample.power_w = 0.4;
  sample.ipc = 0.8;
  sample.mpki = 10.0;
  EXPECT_LT(policy(sample), 15u);
}

TEST(Experiment, EvaluateAppsReturnsMetricsPerApp) {
  ControllerConfig config;
  EvalConfig eval;
  eval.processor.sensor_noise_w = 0.0;
  const Evaluator evaluator(config, eval);
  const PolicyFn mid = [](const sim::TelemetrySample&) {
    return std::size_t{8};
  };
  const std::vector<sim::AppProfile> apps = {*sim::splash2_app("fft"),
                                             *sim::splash2_app("radix")};
  const auto metrics = evaluate_apps(evaluator, mid, apps, 3);
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].app, "fft");
  EXPECT_EQ(metrics[1].app, "radix");
  for (const auto& m : metrics) {
    EXPECT_GT(m.exec_time_s, 0.0);
    EXPECT_GT(m.ips, 0.0);
    EXPECT_GT(m.power_w, 0.0);
  }
}

TEST(Experiment, SupportsMoreThanTwoDevices) {
  // The paper notes the system "can be naturally extended to use more than
  // two devices" — verify N = 4 works end to end.
  ExperimentConfig config = tiny_config();
  std::vector<std::vector<sim::AppProfile>> apps = {
      {*sim::splash2_app("fft")},
      {*sim::splash2_app("radix")},
      {*sim::splash2_app("lu")},
      {*sim::splash2_app("barnes")},
  };
  const auto result =
      run_federated(config, apps, sim::splash2_suite(), true);
  EXPECT_EQ(result.devices.size(), 4u);
  EXPECT_EQ(result.traffic.uplink_transfers, 4u * 5u);
}

}  // namespace
}  // namespace fedpower::core
