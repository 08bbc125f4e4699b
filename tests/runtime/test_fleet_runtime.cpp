#include "runtime/fleet_runtime.hpp"

#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "sim/splash2.hpp"

namespace fedpower::runtime {
namespace {

std::vector<std::vector<sim::AppProfile>> two_device_apps() {
  return core::resolve(core::table2_scenarios()[1]);
}

core::ExperimentConfig tiny_config(std::size_t num_threads) {
  core::ExperimentConfig config;
  config.rounds = 4;
  config.controller.steps_per_round = 15;
  config.eval.episode_intervals = 8;
  config.seed = 17;
  config.num_threads = num_threads;
  return config;
}

TEST(FleetRuntime, BuildsOneDevicePerAppSet) {
  FleetRuntime fleet({core::ControllerConfig{}}, sim::ProcessorConfig{},
                     two_device_apps(), 7, 1);
  EXPECT_EQ(fleet.size(), 2u);
  EXPECT_EQ(fleet.num_threads(), 1u);
  EXPECT_EQ(fleet.clients().size(), 2u);
  EXPECT_FALSE(fleet.executor());  // serial runtime: no executor
}

TEST(FleetRuntime, ParallelRuntimeExposesExecutor) {
  FleetRuntime fleet({core::ControllerConfig{}}, sim::ProcessorConfig{},
                     two_device_apps(), 7, 4);
  EXPECT_EQ(fleet.num_threads(), 4u);
  EXPECT_TRUE(static_cast<bool>(fleet.executor()));
}

TEST(FleetRuntime, MatchesSerialConstructionBitForBit) {
  // The runtime's canonical construction loop must reproduce the exact RNG
  // split order the serial runners used, so freshly built fleets start
  // from identical parameters regardless of num_threads.
  FleetRuntime serial({core::ControllerConfig{}}, sim::ProcessorConfig{},
                      two_device_apps(), 21, 1);
  FleetRuntime parallel({core::ControllerConfig{}}, sim::ProcessorConfig{},
                        two_device_apps(), 21, 4);
  for (std::size_t d = 0; d < serial.size(); ++d)
    EXPECT_EQ(serial.controller(d).local_parameters(),
              parallel.controller(d).local_parameters());
}

TEST(FleetRuntime, ParallelLocalRoundMatchesSerial) {
  FleetRuntime serial({core::ControllerConfig{}}, sim::ProcessorConfig{},
                      two_device_apps(), 33, 1);
  FleetRuntime parallel({core::ControllerConfig{}}, sim::ProcessorConfig{},
                        two_device_apps(), 33, 4);
  for (int round = 0; round < 3; ++round) {
    serial.run_local_round();
    parallel.run_local_round();
  }
  for (std::size_t d = 0; d < serial.size(); ++d)
    EXPECT_EQ(serial.controller(d).local_parameters(),
              parallel.controller(d).local_parameters());
}

// The tentpole guarantee: a parallel (4-thread) federated run is
// bit-identical to the serial (1-thread) run for the same seed — same
// RoundResults (traffic, curves) and same final weights.
TEST(FleetRuntime, FederatedRunBitIdenticalAcrossThreadCounts) {
  const auto apps = two_device_apps();
  const auto suite = sim::splash2_suite();
  const auto serial = core::run_federated(tiny_config(1), apps, suite, true);
  const auto parallel =
      core::run_federated(tiny_config(4), apps, suite, true);

  EXPECT_EQ(serial.global_params, parallel.global_params);
  ASSERT_EQ(serial.devices.size(), parallel.devices.size());
  for (std::size_t d = 0; d < serial.devices.size(); ++d) {
    EXPECT_EQ(serial.devices[d].reward, parallel.devices[d].reward);
    EXPECT_EQ(serial.devices[d].mean_freq_mhz,
              parallel.devices[d].mean_freq_mhz);
    EXPECT_EQ(serial.devices[d].stddev_freq_mhz,
              parallel.devices[d].stddev_freq_mhz);
    EXPECT_EQ(serial.devices[d].mean_power_w,
              parallel.devices[d].mean_power_w);
    EXPECT_EQ(serial.devices[d].violation_rate,
              parallel.devices[d].violation_rate);
  }
  EXPECT_EQ(serial.fleet.reward, parallel.fleet.reward);
  EXPECT_EQ(serial.traffic.uplink_bytes, parallel.traffic.uplink_bytes);
  EXPECT_EQ(serial.traffic.downlink_bytes, parallel.traffic.downlink_bytes);
  EXPECT_EQ(serial.eval_app_per_round, parallel.eval_app_per_round);
}

TEST(FleetRuntime, LocalOnlyRunBitIdenticalAcrossThreadCounts) {
  const auto apps = two_device_apps();
  const auto suite = sim::splash2_suite();
  const auto serial =
      core::run_local_only(tiny_config(1), apps, suite, true);
  const auto parallel =
      core::run_local_only(tiny_config(4), apps, suite, true);
  EXPECT_EQ(serial.final_params, parallel.final_params);
  for (std::size_t d = 0; d < serial.devices.size(); ++d)
    EXPECT_EQ(serial.devices[d].reward, parallel.devices[d].reward);
}

TEST(FleetRuntime, CollabProfitBitIdenticalAcrossThreadCounts) {
  const auto apps = two_device_apps();
  auto config = tiny_config(1);
  const auto serial = core::run_collab_profit(config, apps);
  config.num_threads = 4;
  const auto parallel = core::run_collab_profit(config, apps);
  ASSERT_EQ(serial.clients.size(), parallel.clients.size());
  for (std::size_t d = 0; d < serial.clients.size(); ++d)
    EXPECT_EQ(serial.clients[d]->export_policy(),
              parallel.clients[d]->export_policy());
}

TEST(FleetRuntime, FleetCurveIsAcrossDeviceMean) {
  const auto result = core::run_federated(tiny_config(2), two_device_apps(),
                                          sim::splash2_suite(), true);
  ASSERT_EQ(result.fleet.reward.size(), result.devices[0].reward.size());
  for (std::size_t r = 0; r < result.fleet.reward.size(); ++r) {
    double sum = 0.0;
    for (const auto& device : result.devices) sum += device.reward[r];
    EXPECT_DOUBLE_EQ(result.fleet.reward[r],
                     sum / static_cast<double>(result.devices.size()));
  }
}

TEST(FleetRuntime, PerDeviceConfigsAreHonoured) {
  std::vector<core::ControllerConfig> configs(2);
  configs[1].steps_per_round = 3;
  FleetRuntime fleet(configs, sim::ProcessorConfig{}, two_device_apps(), 9,
                     2);
  EXPECT_EQ(fleet.controller(0).config().steps_per_round, 100u);
  EXPECT_EQ(fleet.controller(1).config().steps_per_round, 3u);
}

}  // namespace
}  // namespace fedpower::runtime
