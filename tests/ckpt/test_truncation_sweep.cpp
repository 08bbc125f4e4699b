// Truncation sweep over the byte goldens: every proper prefix of every file
// under goldens/ must make restore throw CorruptSnapshotError (never
// assert, crash or read past the end), and the object a failed restore
// leaves behind must still take the whole golden and save the bytes it
// encodes — the golden itself for the layouts this build writes, or for
// the read-only legacy layouts the bytes a fresh object saves after
// restoring them.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "ckpt/errors.hpp"
#include "ckpt/snapshot.hpp"
#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "fed/fault_injection.hpp"
#include "fed/federation.hpp"
#include "rl/neural_agent.hpp"
#include "rl/replay_buffer.hpp"
#include "runtime/fleet_runtime.hpp"
#include "serve/server.hpp"
#include "sim/splash2.hpp"
#include "util/rng.hpp"

namespace fedpower {
namespace {

std::vector<std::uint8_t> read_golden(const std::string& name) {
  std::ifstream in(std::string(FEDPOWER_CKPT_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// One restorable target: restore() reads a payload into it, save()
/// writes what it holds.
struct Target {
  std::function<void(ckpt::Reader&)> restore;
  std::function<std::vector<std::uint8_t>()> save;
};

template <class Component>
Target target_of(Component& component) {
  return {[&component](ckpt::Reader& in) { component.restore_state(in); },
          [&component] {
            ckpt::Writer out;
            component.save_state(out);
            return out.take();
          }};
}

/// The bytes a fresh object saves after restoring the whole golden.
std::vector<std::uint8_t> resaved(const std::vector<std::uint8_t>& golden,
                                  const Target& fresh) {
  ckpt::Reader in(golden);
  fresh.restore(in);
  EXPECT_TRUE(in.exhausted());
  return fresh.save();
}

/// Restores every proper prefix of the golden into `swept`, then the whole
/// golden, which must leave it saving what `fresh` saves after restoring
/// the golden — the golden itself when `current` (a layout this build
/// writes).
void sweep(const std::string& file, const Target& swept, const Target& fresh,
           bool current) {
  SCOPED_TRACE(file);
  const std::vector<std::uint8_t> golden = read_golden(file);
  ASSERT_FALSE(golden.empty());
  const std::vector<std::uint8_t> expected = resaved(golden, fresh);
  if (current) EXPECT_EQ(expected, golden);
  std::size_t wrong = 0;
  for (std::size_t n = 0; n < golden.size() && wrong < 5; ++n) {
    ckpt::Reader in{std::span(golden).first(n)};
    try {
      swept.restore(in);
      ADD_FAILURE() << "a " << n << "-byte prefix restored";
      ++wrong;
    } catch (const ckpt::CorruptSnapshotError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "a " << n << "-byte prefix threw " << e.what();
      ++wrong;
    }
  }
  ckpt::Reader in(golden);
  swept.restore(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(swept.save(), expected);
}

TEST(TruncationSweep, ReplayRings) {
  const std::pair<const char*, bool> goldens[] = {
      {"replay_rpl2_prewrap.bin", true},   {"replay_rpl2_wrapped.bin", true},
      {"replay_rply_prewrap.bin", false},  {"replay_rply_wrapped.bin", false},
      {"qreplay_qrp2_prewrap.bin", true},  {"qreplay_qrp2_wrapped.bin", true},
      {"qreplay_qrpl_prewrap.bin", false}, {"qreplay_qrpl_wrapped.bin", false}};
  for (const auto& [file, current] : goldens) {
    const bool successors = file[0] == 'q';
    rl::ReplayBuffer ring(8, 3, successors);
    rl::ReplayBuffer fresh(8, 3, successors);
    sweep(file, target_of(ring), target_of(fresh), current);
  }
}

/// Two agents back to back, as the golden holds them: Table I, then two
/// hidden layers.
struct AgentPair {
  rl::NeuralBanditAgent table1{rl::NeuralAgentConfig{}, util::Rng{1}};
  rl::NeuralBanditAgent two_hidden{deep(), util::Rng{2}};

  static rl::NeuralAgentConfig deep() {
    rl::NeuralAgentConfig config;
    config.hidden_sizes = {16, 8};
    return config;
  }
  Target target() {
    return {[this](ckpt::Reader& in) {
              table1.restore_state(in);
              two_hidden.restore_state(in);
            },
            [this] {
              ckpt::Writer out;
              table1.save_state(out);
              two_hidden.save_state(out);
              return out.take();
            }};
  }
};

TEST(TruncationSweep, FreshAgents) {
  AgentPair swept;
  AgentPair fresh;
  sweep("agent_agnt_fresh.bin", swept.target(), fresh.target(), true);
}

core::ControllerConfig golden_controller(std::size_t optimize_interval) {
  core::ControllerConfig config;
  config.agent.hidden_sizes = {4};
  config.agent.replay_capacity = 16;
  config.agent.batch_size = 8;
  config.agent.optimize_interval = optimize_interval;
  config.steps_per_round = 6;
  return config;
}

std::vector<std::vector<sim::AppProfile>> fleet_apps(std::size_t n) {
  const auto suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps;
  for (std::size_t d = 0; d < n; ++d) apps.push_back({suite[d % suite.size()]});
  return apps;
}

TEST(TruncationSweep, LazyFleets) {
  struct FleetGolden {
    const char* file;
    core::ControllerConfig controller;
    std::size_t devices;
    bool current;  ///< false: its hot device holds a legacy replay ring
  };
  const FleetGolden goldens[] = {
      {"fleet_flt2_pristine_hot.bin", core::ControllerConfig{}, 2, true},
      {"fleet_flt2_dehydrated.bin", golden_controller(5), 4, false},
      {"fleet_flt2_agnf.bin", golden_controller(10), 4, true}};
  for (const FleetGolden& golden : goldens) {
    // An eager fleet materializes every record, so it saves FLT1.
    for (const bool lazy : {true, false}) {
      SCOPED_TRACE(lazy ? "lazy" : "eager");
      auto fleet = [&] {
        return runtime::FleetRuntime({golden.controller},
                                     sim::ProcessorConfig{},
                                     fleet_apps(golden.devices),
                                     /*seed=*/2026,
                                     runtime::FleetOptions{1, lazy});
      };
      runtime::FleetRuntime swept = fleet();
      runtime::FleetRuntime fresh = fleet();
      sweep(golden.file, target_of(swept), target_of(fresh),
            golden.current && lazy);
    }
  }
}

/// Deterministic client: adds its fixed delta each local round.
class ScriptedClient final : public fed::FederatedClient {
 public:
  explicit ScriptedClient(double delta) : delta_(delta) {}
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {
    for (double& p : params_) p += delta_;
  }

 private:
  double delta_;
  std::vector<double> params_;
};

/// The snapshot-golden rig's driver over a sharded server.
struct ServerRig {
  std::vector<std::unique_ptr<ScriptedClient>> fleet;
  fed::InProcessTransport wire;
  serve::ShardedServer server;
  fed::FederatedAveraging driver;

  explicit ServerRig(serve::CommitMode mode)
      : fleet(make_fleet()),
        server(fleet.size(), config(mode)),
        driver(clients(), &wire, &server) {
    driver.initialize({0.0, 10.0, -5.0, 1.25});
  }

  static std::vector<std::unique_ptr<ScriptedClient>> make_fleet() {
    std::vector<std::unique_ptr<ScriptedClient>> out;
    for (const double delta : {0.5, -1.0, 2.0, 0.25, -0.75, 1.5, 0.1, 40.0})
      out.push_back(std::make_unique<ScriptedClient>(delta));
    return out;
  }
  static serve::ServeConfig config(serve::CommitMode mode) {
    serve::ServeConfig config;
    config.mode = mode;
    return config;
  }
  std::vector<fed::FederatedClient*> clients() const {
    std::vector<fed::FederatedClient*> out;
    for (const auto& client : fleet) out.push_back(client.get());
    return out;
  }
};

TEST(TruncationSweep, LegacyServerSnapshots) {
  for (const auto& [file, mode] :
       {std::pair{"sfed_srvr_deterministic.bin",
                  serve::CommitMode::kDeterministic},
        std::pair{"sfed_srvr_throughput.bin",
                  serve::CommitMode::kThroughput}}) {
    ServerRig rig(mode);
    ServerRig fresh(mode);
    sweep(file, target_of(rig.driver), target_of(fresh.driver), false);
  }
}

TEST(TruncationSweep, LazyChaosExperiment) {
  // The FEXP payload restores through run_federated's resume: each prefix
  // goes in a container of its own, and the run (already at its last
  // round) only restores.
  const std::vector<std::uint8_t> golden =
      read_golden("experiment_fexp_lazy_chaos.bin");
  const std::filesystem::path file =
      std::filesystem::temp_directory_path() / "fedpower_fexp_sweep.fpck";
  core::ExperimentConfig config;
  config.controller = golden_controller(5);
  config.rounds = 4;
  config.seed = 2026;
  config.sampling.fraction = 0.2;
  config.sampling.seed = 6;
  config.lazy_fleet = true;
  config.chaos.enabled = true;
  config.chaos.leave_probability = 0.2;
  config.chaos.shock_probability = 0.75;
  config.checkpoint.resume_from = file.string();
  const auto apps = fleet_apps(10);
  const auto suite = sim::splash2_suite();
  auto resume_from = [&](std::span<const std::uint8_t> payload) {
    const std::vector<std::uint8_t> container = ckpt::encode_snapshot(payload);
    std::ofstream(file, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(container.data()),
               static_cast<std::streamsize>(container.size()));
    (void)core::run_federated(config, apps, suite, /*eval_each_round=*/false);
  };
  std::size_t wrong = 0;
  for (std::size_t n = 0; n < golden.size() && wrong < 5; ++n) {
    try {
      resume_from(std::span(golden).first(n));
      ADD_FAILURE() << "a " << n << "-byte prefix resumed";
      ++wrong;
    } catch (const ckpt::CorruptSnapshotError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "a " << n << "-byte prefix threw " << e.what();
      ++wrong;
    }
  }
  EXPECT_NO_THROW(resume_from(golden));
  std::filesystem::remove(file);
}

}  // namespace
}  // namespace fedpower
