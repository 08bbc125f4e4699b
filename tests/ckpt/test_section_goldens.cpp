// Section goldens: FNV-1a hashes of the bytes each snapshot section writes
// from a scripted state, for the layouts no other golden pins — SGD0,
// DRFT after a trigger, BYZC of a sleeper past its start round, FINJ, QAGT,
// CTRL with a drift monitor, PROC with the thermal model, armed hardware
// faults, frozen counters and an in-flight run, FLT1 of an eager fleet with
// an attacked device, LEXP, and FEXP of an eager run with defense,
// compromised devices and transport faults. Each state is also restored
// into a fresh object that must save the same bytes, so the read side of
// every section is pinned with its write side.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "ckpt/rotation.hpp"
#include "ckpt/snapshot.hpp"
#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "fed/byzantine.hpp"
#include "fed/fault_injection.hpp"
#include "fed/transport.hpp"
#include "nn/optimizer.hpp"
#include "rl/drift.hpp"
#include "rl/neural_q_agent.hpp"
#include "runtime/fleet_runtime.hpp"
#include "sim/processor.hpp"
#include "sim/splash2.hpp"
#include "util/rng.hpp"

namespace fedpower {
namespace {

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

template <class Component>
std::vector<std::uint8_t> saved_bytes(const Component& component) {
  ckpt::Writer out;
  component.save_state(out);
  return out.take();
}

/// Restores bytes into fresh and requires it to consume them exactly and
/// save them back unchanged.
template <class Component>
void expect_round_trip(const std::vector<std::uint8_t>& bytes,
                       Component& fresh) {
  ckpt::Reader in(bytes);
  fresh.restore_state(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(saved_bytes(fresh), bytes);
}

TEST(SectionGoldens, SgdWithMomentum) {
  nn::Sgd sgd(0.1, 0.9);
  std::vector<double> params = {0.0, 1.0, -2.5};
  for (int i = 0; i < 7; ++i) sgd.step(params, {1.0, -0.5, 0.125 * i});
  const auto bytes = saved_bytes(sgd);
  EXPECT_EQ(fnv1a(bytes), 1643117053015523603ULL);
  nn::Sgd fresh(0.1, 0.9);
  expect_round_trip(bytes, fresh);
}

TEST(SectionGoldens, DriftMonitorAfterATrigger) {
  rl::DriftConfig config;
  config.warmup = 10;
  config.cooldown = 20;
  rl::DriftMonitor monitor(config);
  for (int i = 0; i < 40; ++i) (void)monitor.observe(0.6);
  for (int i = 0; i < 12; ++i) (void)monitor.observe(-0.8);
  ASSERT_GT(monitor.detections(), 0u);
  const auto bytes = saved_bytes(monitor);
  EXPECT_EQ(fnv1a(bytes), 12365461819298572891ULL);
  rl::DriftMonitor fresh(config);
  expect_round_trip(bytes, fresh);
}

/// Deterministic client: adds its fixed delta each local round.
class ScriptedClient final : public fed::FederatedClient {
 public:
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {
    for (double& p : params_) p += 0.25;
  }

 private:
  std::vector<double> params_;
};

TEST(SectionGoldens, SleeperByzantineClientPastItsStartRound) {
  fed::ClientFaultConfig config;
  config.attack = fed::UploadAttack::kStaleReplay;
  config.stale_rounds = 3;
  config.start_round = 2;
  ScriptedClient inner;
  fed::ByzantineClient client(&inner, config);
  client.receive_global(std::vector<double>{1.0, -2.0, 0.5});
  for (int round = 0; round < 5; ++round) client.run_local_round();
  ASSERT_TRUE(client.attack_active());
  const auto bytes = saved_bytes(client);
  EXPECT_EQ(fnv1a(bytes), 13858879018890048877ULL);
  ScriptedClient fresh_inner;
  fed::ByzantineClient fresh(&fresh_inner, config);
  expect_round_trip(bytes, fresh);
}

TEST(SectionGoldens, FaultInjectingTransport) {
  fed::FaultInjectionConfig config;
  config.drop_probability = 0.1;
  config.delay_probability = 0.2;
  config.truncate_probability = 0.1;
  config.disconnect_probability = 0.05;
  config.seed = 33;
  fed::InProcessTransport inner;
  fed::FaultInjectingTransport wire(&inner, config);
  for (int i = 0; i < 60; ++i) {
    try {
      (void)wire.transfer(i % 2 == 0 ? fed::Direction::kUplink
                                     : fed::Direction::kDownlink,
                          std::vector<std::uint8_t>(16, 7));
    } catch (const fed::TransportError&) {
    }
  }
  ASSERT_GT(wire.fault_stats().disconnects, 0u);
  const auto bytes = saved_bytes(wire);
  EXPECT_EQ(fnv1a(bytes), 15581799049995112298ULL);
  fed::InProcessTransport fresh_inner;
  fed::FaultInjectingTransport fresh(&fresh_inner, config);
  expect_round_trip(bytes, fresh);
}

/// A small network, so the golden stays a few KB.
rl::NeuralQConfig small_q_config() {
  rl::NeuralQConfig config;
  config.base.hidden_sizes = {4};
  config.base.replay_capacity = 16;
  config.base.batch_size = 4;
  config.base.optimize_interval = 3;
  return config;
}

TEST(SectionGoldens, NeuralQAgentAfterUpdates) {
  const rl::NeuralQConfig config = small_q_config();
  rl::NeuralQAgent agent(config, util::Rng{7});
  std::vector<double> state(config.base.state_dim, 0.0);
  for (int step = 0; step < 20; ++step) {
    std::vector<double> next = state;
    for (std::size_t i = 0; i < next.size(); ++i)
      next[i] = 0.1 * static_cast<double>((step + 3 * i) % 7) - 0.3;
    const std::size_t action = agent.select_action(state);
    agent.record(state, action, 0.05 * step - 0.4, next);
    (void)agent.train_step();
    state = next;
  }
  const auto bytes = saved_bytes(agent);
  EXPECT_EQ(fnv1a(bytes), 4527585507664909948ULL);
  rl::NeuralQAgent fresh(config, util::Rng{99});
  expect_round_trip(bytes, fresh);
}

sim::ProcessorConfig thermal_config() {
  sim::ProcessorConfig config;
  config.enable_thermal = true;
  return config;
}

TEST(SectionGoldens, ControllerWithADriftMonitor) {
  core::ControllerConfig config;
  config.agent.hidden_sizes = {4};
  config.agent.replay_capacity = 16;
  config.agent.batch_size = 4;
  config.agent.optimize_interval = 5;
  config.drift_adaptation = true;
  config.drift.warmup = 4;
  sim::SingleAppWorkload workload(*sim::splash2_app("fft"));
  sim::Processor processor(sim::ProcessorConfig{}, util::Rng{3});
  processor.set_workload(&workload);
  core::PowerController controller(config, &processor, util::Rng{5});
  for (int i = 0; i < 12; ++i) (void)controller.step();
  const auto bytes = saved_bytes(controller);
  EXPECT_EQ(fnv1a(bytes), 8098379498766708901ULL);
  sim::Processor fresh_processor(sim::ProcessorConfig{}, util::Rng{3});
  core::PowerController fresh(config, &fresh_processor, util::Rng{8});
  expect_round_trip(bytes, fresh);
}

TEST(SectionGoldens, ProcessorWithThermalFaultsFrozenCountersInFlight) {
  sim::SingleAppWorkload workload(*sim::splash2_app("ocean"));
  sim::Processor processor(thermal_config(), util::Rng{11});
  processor.set_workload(&workload);
  processor.set_level(7);
  for (int i = 0; i < 6; ++i) (void)processor.run_interval(0.5);
  sim::HardwareFaultConfig faults;
  faults.stuck_power_sensor = true;
  faults.stuck_power_w = 1.5;
  faults.frozen_counters = true;
  processor.inject_faults(faults);
  // Past the first completed run, and into the next one.
  for (int i = 0; i < 4000 && processor.completed_runs().empty(); ++i)
    (void)processor.run_interval(0.5);
  for (int i = 0; i < 2; ++i) (void)processor.run_interval(0.5);
  ASSERT_FALSE(processor.completed_runs().empty());
  ASSERT_NE(processor.current_app_name(), "");
  const auto bytes = saved_bytes(processor);
  EXPECT_EQ(fnv1a(bytes), 6015477309021502206ULL);
  sim::SingleAppWorkload fresh_workload(*sim::splash2_app("ocean"));
  sim::Processor fresh(thermal_config(), util::Rng{404});
  fresh.set_workload(&fresh_workload);
  fresh.inject_faults(faults);
  expect_round_trip(bytes, fresh);
}

core::ControllerConfig small_controller() {
  core::ControllerConfig config;
  config.agent.hidden_sizes = {4};
  config.agent.replay_capacity = 16;
  config.agent.batch_size = 8;
  config.agent.optimize_interval = 5;
  config.steps_per_round = 6;
  return config;
}

std::vector<std::vector<sim::AppProfile>> small_fleet_apps(std::size_t n) {
  const auto suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps;
  for (std::size_t d = 0; d < n; ++d) apps.push_back({suite[d % suite.size()]});
  return apps;
}

runtime::FleetRuntime eager_fleet() {
  return runtime::FleetRuntime({small_controller()}, sim::ProcessorConfig{},
                               small_fleet_apps(3), /*seed=*/2026,
                               runtime::FleetOptions{1, /*lazy=*/false});
}

/// Device 2 replays stale models and reads frozen counters.
void attack_device_two(runtime::FleetRuntime& fleet) {
  runtime::DeviceFaultConfig faults;
  faults.upload.attack = fed::UploadAttack::kStaleReplay;
  faults.upload.stale_rounds = 2;
  faults.hardware.frozen_counters = true;
  fleet.inject_faults(2, faults);
}

TEST(SectionGoldens, EagerFleetWithAnAttackedDevice) {
  runtime::FleetRuntime fleet = eager_fleet();
  attack_device_two(fleet);
  for (int round = 0; round < 2; ++round) fleet.run_local_round();
  const auto bytes = saved_bytes(fleet);
  ASSERT_EQ(std::string(bytes.begin(), bytes.begin() + 4), "FLT1");
  EXPECT_EQ(fnv1a(bytes), 7929507738840224828ULL);
  runtime::FleetRuntime fresh = eager_fleet();
  attack_device_two(fresh);
  expect_round_trip(bytes, fresh);
}

/// Runs the config with a checkpoint every round and returns the hashes of
/// the snapshots, oldest first, and the last snapshot's bytes.
template <class Run>
std::vector<std::uint64_t> snapshot_hashes(core::ExperimentConfig config,
                                           const std::string& name, Run run,
                                           std::string* last_tag) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  config.checkpoint.every_rounds = 1;
  config.checkpoint.keep = config.rounds;
  config.checkpoint.dir = dir.string();
  run(config);
  const ckpt::SnapshotRotation rotation(dir.string(), config.checkpoint.keep);
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint8_t> last;
  for (const std::uint64_t sequence : rotation.sequences()) {
    last = ckpt::read_snapshot_file(rotation.path_for(sequence));
    hashes.push_back(fnv1a(last));
  }
  std::filesystem::remove_all(dir);
  if (!last.empty()) *last_tag = std::string(last.begin(), last.begin() + 4);
  return hashes;
}

TEST(SectionGoldens, LocalOnlyExperiment) {
  core::ExperimentConfig config;
  config.controller = small_controller();
  config.rounds = 3;
  config.seed = 2026;
  std::string tag;
  const auto hashes = snapshot_hashes(
      config, "fedpower_lexp_section_golden",
      [](const core::ExperimentConfig& c) {
        const auto suite = sim::splash2_suite();
        (void)core::run_local_only(c, small_fleet_apps(3), suite,
                                   /*eval_each_round=*/true);
      },
      &tag);
  EXPECT_EQ(tag, "LEXP");
  EXPECT_EQ(hashes, (std::vector<std::uint64_t>{3386843975915836876ULL,
                                                2212822932597538488ULL,
                                                670115579227117877ULL}));
}

TEST(SectionGoldens, EagerExperimentWithDefenseAttacksAndTransportFaults) {
  core::ExperimentConfig config;
  config.controller = small_controller();
  config.rounds = 3;
  config.seed = 2026;
  config.defense.enabled = true;
  config.defense.warmup_rounds = 1;
  config.faults.attack = fed::UploadAttack::kSignFlip;
  config.faults.fraction = 0.25;
  config.faults.hardware.frozen_counters = true;
  config.faults.transport.drop_probability = 0.1;
  config.faults.transport.delay_probability = 0.2;
  config.faults.transport.seed = 12;
  std::string tag;
  const auto hashes = snapshot_hashes(
      config, "fedpower_fexp_section_golden",
      [](const core::ExperimentConfig& c) {
        const auto suite = sim::splash2_suite();
        (void)core::run_federated(c, small_fleet_apps(4), suite,
                                  /*eval_each_round=*/true);
      },
      &tag);
  EXPECT_EQ(tag, "FEXP");
  EXPECT_EQ(hashes, (std::vector<std::uint64_t>{5665825615945354682ULL,
                                                15744068192823329152ULL,
                                                8395889786830702478ULL}));
}

}  // namespace
}  // namespace fedpower
