// Legacy-format goldens: full-ring replay buffers (RPLY, QRPL; one before
// the ring wraps, one after) and a lazy-fleet snapshot (FLT2) holding
// dehydrated records, captured as fixed bytes under goldens/ from the last
// build that wrote those layouts. Today's build writes the live-slot
// layouts (RPL2, QRP2) instead; these pin that it still reads the old
// bytes into the same state, and that a run resumed from them continues
// bit-identically.
//
// Construction goldens: live-slot rings (RPL2, QRP2), a fresh agent (AGNT)
// and a lazy fleet holding one pristine device hydrated but never touched
// (FLT2), captured from the last build that zero-filled its rings and
// drew the He init at construction. Rings now grow on push and the init is
// deferred to the first read; these pin that neither moved a byte.
//
// Float32 golden: a lazy fleet (FLT2) holding an agent saved with its
// weights as floats (AGNF) both as a dehydrated blob and inline, beside
// one saved as doubles (AGNT), captured when the float layout was added.
//
// Experiment golden: the FEXP snapshots of a lazy run under chaos that
// checkpoints every round, captured from the last build that kept a
// round's participants hot until the end of the next round. Lazy fleets
// now cool them as the next round starts; the hot set at each checkpoint,
// and so every snapshot byte, must not move.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "ckpt/rotation.hpp"
#include "ckpt/snapshot.hpp"
#include "core/controller.hpp"
#include "core/experiment.hpp"
#include "nn/matrix.hpp"
#include "rl/neural_agent.hpp"
#include "rl/replay_buffer.hpp"
#include "runtime/fleet_runtime.hpp"
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

template <class Component>
std::vector<std::uint8_t> saved_bytes(const Component& component) {
  ckpt::Writer out;
  component.save_state(out);
  return out.take();
}

// --- replay buffers --------------------------------------------------------

// The push script the replay goldens were captured from: capacity 8,
// state_dim 3, 5 pushes (not wrapped) or 13 (wrapped, head at slot 5).
constexpr std::size_t kCapacity = 8;
constexpr std::size_t kStateDim = 3;

std::vector<double> script_state(std::size_t i) {
  const double x = static_cast<double>(i);
  return {0.5 * x - 1.0, 0.01 * x * x, -(x + 0.25)};
}
std::size_t script_action(std::size_t i) { return (3 * i) % 7; }
double script_reward(std::size_t i) {
  return 0.1 * static_cast<double>(i) - 0.35;
}

/// The successor kind stores the next push's state as each successor.
void push_script(rl::ReplayBuffer& buffer, std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    const auto next = buffer.has_successors() ? script_state(i + 1)
                                              : std::vector<double>{};
    buffer.push(script_state(i), script_action(i), script_reward(i), next);
  }
}

struct ReplayGolden {
  const char* file;
  std::size_t pushes;
};
constexpr ReplayGolden kReplayGoldens[] = {{"replay_rply_prewrap.bin", 5},
                                           {"replay_rply_wrapped.bin", 13}};
constexpr ReplayGolden kQReplayGoldens[] = {{"qreplay_qrpl_prewrap.bin", 5},
                                            {"qreplay_qrpl_wrapped.bin", 13}};

TEST(LegacyGoldens, RplyRestoresToTheStateItWasCapturedFrom) {
  for (const ReplayGolden& golden : kReplayGoldens) {
    SCOPED_TRACE(golden.file);
    const auto bytes = read_golden(golden.file);
    ASSERT_EQ(std::string(bytes.begin(), bytes.begin() + 4), "RPLY");
    rl::ReplayBuffer live(kCapacity, kStateDim);
    push_script(live, 0, golden.pushes);
    rl::ReplayBuffer restored(kCapacity, kStateDim);
    ckpt::Reader in(bytes);
    restored.restore_state(in);
    EXPECT_TRUE(in.exhausted());

    ASSERT_EQ(restored.size(), live.size());
    EXPECT_EQ(restored.max_action(), live.max_action());
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(restored.at(i).state, live.at(i).state) << i;
      EXPECT_EQ(restored.at(i).action, live.at(i).action) << i;
      EXPECT_EQ(restored.at(i).reward, live.at(i).reward) << i;
    }
    // Same head: the RPL2 header (tag, capacity, state_dim, head, size)
    // and live slots re-save byte for byte.
    EXPECT_EQ(saved_bytes(restored), saved_bytes(live));

    // The same draws, from the same stream, now and after more pushes.
    util::Rng rng_live(17);
    util::Rng rng_restored(17);
    for (int round = 0; round < 2; ++round) {
      nn::Matrix s_live, s_restored;
      std::vector<std::size_t> a_live, a_restored;
      std::vector<double> r_live, r_restored;
      EXPECT_EQ(live.sample_into(4, rng_live, s_live, a_live, r_live),
                restored.sample_into(4, rng_restored, s_restored, a_restored,
                                     r_restored));
      EXPECT_EQ(s_restored.data(), s_live.data());
      EXPECT_EQ(a_restored, a_live);
      EXPECT_EQ(r_restored, r_live);
      push_script(live, golden.pushes, golden.pushes + 3);
      push_script(restored, golden.pushes, golden.pushes + 3);
    }
    EXPECT_EQ(saved_bytes(restored), saved_bytes(live));
  }
}

TEST(LegacyGoldens, QrplRestoresToTheStateItWasCapturedFrom) {
  for (const ReplayGolden& golden : kQReplayGoldens) {
    SCOPED_TRACE(golden.file);
    const auto bytes = read_golden(golden.file);
    ASSERT_EQ(std::string(bytes.begin(), bytes.begin() + 4), "QRPL");
    rl::ReplayBuffer live(kCapacity, kStateDim, /*successors=*/true);
    push_script(live, 0, golden.pushes);
    rl::ReplayBuffer restored(kCapacity, kStateDim, /*successors=*/true);
    ckpt::Reader in(bytes);
    restored.restore_state(in);
    EXPECT_TRUE(in.exhausted());

    ASSERT_EQ(restored.size(), live.size());
    EXPECT_EQ(restored.max_action(), live.max_action());
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(restored.at(i).state, live.at(i).state) << i;
      EXPECT_EQ(restored.at(i).next_state, live.at(i).next_state) << i;
      EXPECT_EQ(restored.at(i).action, live.at(i).action) << i;
      EXPECT_EQ(restored.at(i).reward, live.at(i).reward) << i;
    }
    EXPECT_EQ(saved_bytes(restored), saved_bytes(live));

    util::Rng rng_live(23);
    util::Rng rng_restored(23);
    for (int round = 0; round < 2; ++round) {
      nn::Matrix s_live, s_restored, n_live, n_restored;
      std::vector<std::size_t> a_live, a_restored;
      std::vector<double> r_live, r_restored;
      EXPECT_EQ(
          live.sample_into(4, rng_live, s_live, a_live, r_live, &n_live),
          restored.sample_into(4, rng_restored, s_restored, a_restored,
                               r_restored, &n_restored));
      EXPECT_EQ(s_restored.data(), s_live.data());
      EXPECT_EQ(n_restored.data(), n_live.data());
      EXPECT_EQ(a_restored, a_live);
      EXPECT_EQ(r_restored, r_live);
      push_script(live, golden.pushes, golden.pushes + 3);
      push_script(restored, golden.pushes, golden.pushes + 3);
    }
    EXPECT_EQ(saved_bytes(restored), saved_bytes(live));
  }
}

constexpr ReplayGolden kLiveSlotGoldens[] = {{"replay_rpl2_prewrap.bin", 5},
                                             {"replay_rpl2_wrapped.bin", 13}};
constexpr ReplayGolden kQLiveSlotGoldens[] = {
    {"qreplay_qrp2_prewrap.bin", 5}, {"qreplay_qrp2_wrapped.bin", 13}};

TEST(ConstructionGoldens, Rpl2RestoresIntoAFreshRingAndResumes) {
  for (const ReplayGolden& golden : kLiveSlotGoldens) {
    SCOPED_TRACE(golden.file);
    const auto bytes = read_golden(golden.file);
    ASSERT_EQ(std::string(bytes.begin(), bytes.begin() + 4), "RPL2");
    rl::ReplayBuffer live(kCapacity, kStateDim);
    push_script(live, 0, golden.pushes);
    EXPECT_EQ(saved_bytes(live), bytes);
    rl::ReplayBuffer restored(kCapacity, kStateDim);
    ckpt::Reader in(bytes);
    restored.restore_state(in);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(saved_bytes(restored), bytes);

    // On past the next wrap: the same entries and the same draws.
    push_script(live, golden.pushes, golden.pushes + 9);
    push_script(restored, golden.pushes, golden.pushes + 9);
    util::Rng rng_live(41);
    util::Rng rng_restored(41);
    nn::Matrix s_live, s_restored;
    std::vector<std::size_t> a_live, a_restored;
    std::vector<double> r_live, r_restored;
    EXPECT_EQ(live.sample_into(6, rng_live, s_live, a_live, r_live),
              restored.sample_into(6, rng_restored, s_restored, a_restored,
                                   r_restored));
    EXPECT_EQ(s_restored.data(), s_live.data());
    EXPECT_EQ(a_restored, a_live);
    EXPECT_EQ(r_restored, r_live);
    EXPECT_EQ(saved_bytes(restored), saved_bytes(live));
  }
}

TEST(ConstructionGoldens, Qrp2RestoresIntoAFreshRingAndResumes) {
  for (const ReplayGolden& golden : kQLiveSlotGoldens) {
    SCOPED_TRACE(golden.file);
    const auto bytes = read_golden(golden.file);
    ASSERT_EQ(std::string(bytes.begin(), bytes.begin() + 4), "QRP2");
    rl::ReplayBuffer live(kCapacity, kStateDim, /*successors=*/true);
    push_script(live, 0, golden.pushes);
    EXPECT_EQ(saved_bytes(live), bytes);
    rl::ReplayBuffer restored(kCapacity, kStateDim, /*successors=*/true);
    ckpt::Reader in(bytes);
    restored.restore_state(in);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(saved_bytes(restored), bytes);

    push_script(live, golden.pushes, golden.pushes + 9);
    push_script(restored, golden.pushes, golden.pushes + 9);
    util::Rng rng_live(43);
    util::Rng rng_restored(43);
    nn::Matrix s_live, s_restored, n_live, n_restored;
    std::vector<std::size_t> a_live, a_restored;
    std::vector<double> r_live, r_restored;
    EXPECT_EQ(live.sample_into(6, rng_live, s_live, a_live, r_live, &n_live),
              restored.sample_into(6, rng_restored, s_restored, a_restored,
                                   r_restored, &n_restored));
    EXPECT_EQ(s_restored.data(), s_live.data());
    EXPECT_EQ(n_restored.data(), n_live.data());
    EXPECT_EQ(a_restored, a_live);
    EXPECT_EQ(r_restored, r_live);
    EXPECT_EQ(saved_bytes(restored), saved_bytes(live));
  }
}

TEST(ConstructionGoldens, FreshAgentSavesTheEagerInitBytes) {
  // A Table I agent and a two-hidden-layer one, saved before any other
  // call: save_state materializes the deferred init.
  ckpt::Writer out;
  const rl::NeuralBanditAgent table1(rl::NeuralAgentConfig{}, util::Rng{2026});
  table1.save_state(out);
  rl::NeuralAgentConfig deep;
  deep.hidden_sizes = {16, 8};
  const rl::NeuralBanditAgent two_hidden(deep, util::Rng{7});
  two_hidden.save_state(out);
  EXPECT_EQ(out.data(), read_golden("agent_agnt_fresh.bin"));
}

TEST(ConstructionGoldens, PristineHydratedDeviceSavesTheEagerInitBytes) {
  // Device 0 stays cold-pristine; device 1 is hydrated and saved inline
  // before any broadcast reaches it (Table I controller).
  const auto suite = sim::splash2_suite();
  const std::vector<std::vector<sim::AppProfile>> apps{{suite[0]},
                                                       {suite[1]}};
  runtime::FleetRuntime fleet({core::ControllerConfig{}},
                              sim::ProcessorConfig{}, apps, /*seed=*/2026,
                              runtime::FleetOptions{1, /*lazy=*/true});
  fleet.hydrate(1);
  EXPECT_EQ(saved_bytes(fleet), read_golden("fleet_flt2_pristine_hot.bin"));
}

// --- lazy fleet ------------------------------------------------------------

// The fleet the FLT2 golden was captured from: four devices with a small
// agent (99 parameters, a 16-entry replay that device 0's 18 steps wrap,
// an update every 5 steps) so the golden stays ~10 KB.
core::ControllerConfig golden_controller() {
  core::ControllerConfig config;
  config.agent.hidden_sizes = {4};
  config.agent.replay_capacity = 16;
  config.agent.batch_size = 8;
  config.agent.optimize_interval = 5;
  config.steps_per_round = 6;
  return config;
}

runtime::FleetRuntime golden_fleet(bool lazy) {
  const auto suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps;
  for (std::size_t d = 0; d < 4; ++d) apps.push_back({suite[d % suite.size()]});
  return runtime::FleetRuntime({golden_controller()}, sim::ProcessorConfig{},
                               apps, /*seed=*/2026,
                               runtime::FleetOptions{1, lazy});
}

/// The rounds before the capture. Afterwards device 0 is dehydrated with a
/// wrapped ring (18 steps), device 1 dehydrated before wrapping (6 steps),
/// device 2 pristine and device 3 hot (12 steps).
void run_to_capture(runtime::FleetRuntime& fleet) {
  const auto clients = fleet.clients();
  const std::vector<std::size_t> keep{3};
  for (const std::size_t d : {0u, 1u, 3u}) clients[d]->run_local_round();
  fleet.dehydrate_inactive(keep);
  for (const std::size_t d : {0u, 3u}) clients[d]->run_local_round();
  fleet.dehydrate_inactive(keep);
  clients[0]->run_local_round();
  fleet.dehydrate_inactive(keep);
}

/// Two more rounds of every device, one by one.
void run_on(runtime::FleetRuntime& fleet) {
  const auto clients = fleet.clients();
  for (int round = 0; round < 2; ++round)
    for (fed::FederatedClient* client : clients) client->run_local_round();
}

void expect_same_devices(runtime::FleetRuntime& a, runtime::FleetRuntime& b) {
  for (std::size_t d = 0; d < a.size(); ++d) {
    SCOPED_TRACE(d);
    EXPECT_EQ(a.controller(d).local_parameters(),
              b.controller(d).local_parameters());
    const rl::ReplayBuffer& ra = a.controller(d).agent().replay();
    const rl::ReplayBuffer& rb = b.controller(d).agent().replay();
    ASSERT_EQ(ra.size(), rb.size());
    EXPECT_EQ(ra.max_action(), rb.max_action());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra.at(i).state, rb.at(i).state);
      EXPECT_EQ(ra.at(i).action, rb.at(i).action);
      EXPECT_EQ(ra.at(i).reward, rb.at(i).reward);
    }
    EXPECT_EQ(saved_bytes(a.controller(d)), saved_bytes(b.controller(d)));
  }
}

TEST(LegacyGoldens, Flt2WithDehydratedRecordsResumesBitIdentically) {
  const auto golden = read_golden("fleet_flt2_dehydrated.bin");
  ASSERT_EQ(std::string(golden.begin(), golden.begin() + 4), "FLT2");

  runtime::FleetRuntime uninterrupted = golden_fleet(/*lazy=*/true);
  run_to_capture(uninterrupted);
  runtime::FleetRuntime resumed = golden_fleet(/*lazy=*/true);
  ckpt::Reader in(golden);
  resumed.restore_state(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(resumed.hot_count(), 1u);  // cold records stay cold
  EXPECT_TRUE(resumed.hot(3));

  run_on(uninterrupted);
  run_on(resumed);
  expect_same_devices(uninterrupted, resumed);
  EXPECT_EQ(saved_bytes(resumed), saved_bytes(uninterrupted));
}

TEST(LegacyGoldens, Flt2WithDehydratedRecordsRestoresIntoAnEagerFleet) {
  const auto golden = read_golden("fleet_flt2_dehydrated.bin");
  runtime::FleetRuntime uninterrupted = golden_fleet(/*lazy=*/true);
  run_to_capture(uninterrupted);
  runtime::FleetRuntime eager = golden_fleet(/*lazy=*/false);
  ckpt::Reader in(golden);
  eager.restore_state(in);
  EXPECT_TRUE(in.exhausted());
  expect_same_devices(uninterrupted, eager);

  run_on(uninterrupted);
  run_on(eager);
  expect_same_devices(uninterrupted, eager);
}

// --- float32 agent snapshots -------------------------------------------------

// The golden fleet with an update every 10 steps, so a 6-step round leaves
// a broadcast untouched.
runtime::FleetRuntime compact_fleet(bool lazy) {
  core::ControllerConfig config = golden_controller();
  config.agent.optimize_interval = 10;
  const auto suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps;
  for (std::size_t d = 0; d < 4; ++d) apps.push_back({suite[d % suite.size()]});
  return runtime::FleetRuntime({config}, sim::ProcessorConfig{}, apps,
                               /*seed=*/2026, runtime::FleetOptions{1, lazy});
}

/// The rounds before the capture, from a float-exact broadcast. Afterwards
/// device 0 is dehydrated with its broadcast untouched (an AGNF blob),
/// device 1 hot the same way (saved inline as AGNF), device 2 pristine and
/// device 3 dehydrated after an update (an AGNT blob).
void run_to_compact_capture(runtime::FleetRuntime& fleet) {
  std::vector<double> global = fleet.controller(0).local_parameters();
  for (double& w : global) w = static_cast<float>(w * 0.75);
  const auto clients = fleet.clients();
  const std::vector<std::size_t> keep{1};
  for (const std::size_t d : {0u, 1u, 3u}) {
    clients[d]->receive_global(global);
    clients[d]->run_local_round();
  }
  clients[3]->run_local_round();
  fleet.dehydrate_inactive(keep);
}

TEST(CompactGoldens, Flt2WithAnAgnfBlobSavesRestoresAndResumes) {
  const auto golden = read_golden("fleet_flt2_agnf.bin");
  ASSERT_EQ(std::string(golden.begin(), golden.begin() + 4), "FLT2");
  const std::string bytes(golden.begin(), golden.end());
  const std::size_t blob = bytes.find("AGNF");
  ASSERT_NE(blob, std::string::npos);
  EXPECT_NE(bytes.find("AGNF", blob + 4), std::string::npos);  // inline
  EXPECT_NE(bytes.find("AGNT"), std::string::npos);
  runtime::FleetRuntime uninterrupted = compact_fleet(/*lazy=*/true);
  run_to_compact_capture(uninterrupted);
  EXPECT_EQ(saved_bytes(uninterrupted), golden);

  for (const bool lazy : {true, false}) {
    SCOPED_TRACE(lazy ? "into a lazy fleet" : "into an eager fleet");
    runtime::FleetRuntime resumed = compact_fleet(lazy);
    ckpt::Reader in(golden);
    resumed.restore_state(in);
    EXPECT_TRUE(in.exhausted());
    expect_same_devices(uninterrupted, resumed);
  }
  runtime::FleetRuntime resumed = compact_fleet(/*lazy=*/true);
  ckpt::Reader in(golden);
  resumed.restore_state(in);
  run_on(uninterrupted);
  run_on(resumed);
  expect_same_devices(uninterrupted, resumed);
  EXPECT_EQ(saved_bytes(resumed), saved_bytes(uninterrupted));
}

// --- lazy experiment -------------------------------------------------------

/// FNV-1a over the snapshot bytes, in order.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(ExperimentGoldens, LazyChaosRunWritesTheSameSnapshotEveryRound) {
  // Ten devices with the small agent, two drawn per round (the same two
  // in rounds 0 and 1, so both go cold and hydrate again), churn and a
  // workload shock on most rounds; every round's snapshot is kept.
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "fedpower_fexp_lazy_golden";
  std::filesystem::remove_all(dir);
  core::ExperimentConfig config;
  config.controller = golden_controller();
  config.rounds = 4;
  config.seed = 2026;
  config.sampling.fraction = 0.2;
  config.sampling.seed = 6;
  config.lazy_fleet = true;
  config.chaos.enabled = true;
  config.chaos.leave_probability = 0.2;
  config.chaos.shock_probability = 0.75;
  config.checkpoint.every_rounds = 1;
  config.checkpoint.keep = config.rounds;
  config.checkpoint.dir = dir.string();
  const auto suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps;
  for (std::size_t d = 0; d < 10; ++d) apps.push_back({suite[d % suite.size()]});
  const core::FederatedRunResult result =
      core::run_federated(config, apps, suite, /*eval_each_round=*/false);
  // Guard against a vacuous golden: churn and shocks must have fired.
  EXPECT_GT(result.robustness.chaos.departures, 0u);
  EXPECT_GT(result.robustness.chaos.shocks, 0u);

  const ckpt::SnapshotRotation rotation(dir.string(), config.checkpoint.keep);
  const std::vector<std::uint64_t> sequences = rotation.sequences();
  ASSERT_EQ(sequences.size(), config.rounds);
  std::vector<std::uint64_t> hashes;
  std::vector<std::uint8_t> last;
  for (const std::uint64_t sequence : sequences) {
    last = ckpt::read_snapshot_file(rotation.path_for(sequence));
    hashes.push_back(fnv1a(last));
  }
  std::filesystem::remove_all(dir);
  ASSERT_EQ(std::string(last.begin(), last.begin() + 4), "FEXP");
  EXPECT_EQ(last, read_golden("experiment_fexp_lazy_chaos.bin"));
  EXPECT_EQ(hashes,
            (std::vector<std::uint64_t>{
                194169852533186936ULL, 15254714714119033630ULL,
                11326721737228965774ULL, 17162058852917437846ULL}));
}

}  // namespace
}  // namespace fedpower
