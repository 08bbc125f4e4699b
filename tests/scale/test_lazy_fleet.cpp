// Lazy FleetRuntime (FleetOptions::lazy): cold construction, hydration
// bit-identity, between-round dehydration, the FLT1/FLT2 snapshot matrix,
// all-or-nothing hydration, faulted devices across cold cycles, bit-exact
// app-list interning and a one-round working set (DESIGN.md §11).
#include "runtime/fleet_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "ckpt/errors.hpp"
#include "core/experiment.hpp"
#include "fed/transport.hpp"
#include "sim/splash2.hpp"
#include "util/rng.hpp"

namespace fedpower::runtime {
namespace {

std::vector<std::vector<sim::AppProfile>> n_device_apps(std::size_t n) {
  const auto suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps;
  for (std::size_t d = 0; d < n; ++d)
    apps.push_back({suite[(2 * d) % suite.size()],
                    suite[(2 * d + 1) % suite.size()]});
  return apps;
}

core::ControllerConfig tiny_controller() {
  core::ControllerConfig config;
  config.steps_per_round = 10;
  return config;
}

FleetRuntime make(std::size_t n, std::uint64_t seed, bool lazy,
                  std::size_t threads = 1) {
  return FleetRuntime({tiny_controller()}, sim::ProcessorConfig{},
                      n_device_apps(n), seed, FleetOptions{threads, lazy});
}

TEST(LazyFleet, StartsColdAndClientsDoNotMaterialize) {
  FleetRuntime fleet = make(6, 7, /*lazy=*/true);
  EXPECT_TRUE(fleet.lazy());
  EXPECT_EQ(fleet.size(), 6u);
  EXPECT_EQ(fleet.hot_count(), 0u);
  // Handing the fleet to a federation must not materialize it: clients()
  // returns stable proxies.
  const auto clients = fleet.clients();
  EXPECT_EQ(clients.size(), 6u);
  EXPECT_EQ(fleet.hot_count(), 0u);
  // The same proxy objects on every call (the federation keeps pointers).
  EXPECT_EQ(fleet.clients(), clients);
}

TEST(LazyFleet, HydrationIsBitIdenticalToEagerConstruction) {
  FleetRuntime eager = make(4, 123, false);
  FleetRuntime lazy = make(4, 123, true);
  // Hydrate out of order: construction states were dealt at fleet build
  // time, so touch order cannot perturb the streams.
  for (const std::size_t d : {2u, 0u, 3u, 1u}) {
    EXPECT_FALSE(lazy.hot(d));
    EXPECT_EQ(lazy.controller(d).local_parameters(),
              eager.controller(d).local_parameters());
    EXPECT_TRUE(lazy.hot(d));
  }
  // And training stays in lockstep.
  eager.run_local_round();
  lazy.run_local_round();
  for (std::size_t d = 0; d < 4; ++d)
    EXPECT_EQ(lazy.controller(d).local_parameters(),
              eager.controller(d).local_parameters());
}

TEST(LazyFleet, DehydrateRehydrateRoundTripsTrainedState) {
  FleetRuntime fleet = make(3, 55, true);
  FleetRuntime witness = make(3, 55, true);
  fleet.run_local_round();
  witness.run_local_round();

  fleet.dehydrate(1);
  EXPECT_FALSE(fleet.hot(1));
  EXPECT_EQ(fleet.hot_count(), 2u);
  // Hydration restores the trained state bit for bit...
  EXPECT_EQ(fleet.controller(1).local_parameters(),
            witness.controller(1).local_parameters());
  // ...and the device trains on as if it had never been cold.
  fleet.run_local_round();
  witness.run_local_round();
  for (std::size_t d = 0; d < 3; ++d)
    EXPECT_EQ(fleet.controller(d).local_parameters(),
              witness.controller(d).local_parameters());
}

TEST(LazyFleet, DehydrateInactiveBoundsTheHotSet) {
  FleetRuntime fleet = make(8, 9, true);
  fleet.run_local_round();  // whole-fleet op: hydrates everyone
  EXPECT_EQ(fleet.hot_count(), 8u);
  const std::vector<std::size_t> keep = {1, 5};
  fleet.dehydrate_inactive(keep);
  EXPECT_EQ(fleet.hot_count(), 2u);
  EXPECT_TRUE(fleet.hot(1));
  EXPECT_TRUE(fleet.hot(5));
  EXPECT_FALSE(fleet.hot(0));
  // Dehydrating a pristine device is a no-op on an all-cold fleet.
  FleetRuntime cold = make(4, 9, true);
  cold.dehydrate_inactive({});
  EXPECT_EQ(cold.hot_count(), 0u);
}

TEST(LazyFleet, EagerFleetRejectsDehydration) {
  FleetRuntime fleet = make(2, 3, false);
  EXPECT_EQ(fleet.hot_count(), 2u);
  // Dehydration is a lazy-fleet concept; an eager fleet must stay hot.
  fleet.dehydrate_inactive({});
  EXPECT_EQ(fleet.hot_count(), 2u);
}

// --- snapshots -----------------------------------------------------------

TEST(LazyFleet, ColdSnapshotDoesNotHydrate) {
  FleetRuntime fleet = make(5, 77, true);
  ckpt::Writer out;
  fleet.save_state(out);
  // The whole-fleet snapshot was taken without materializing one device.
  EXPECT_EQ(fleet.hot_count(), 0u);

  // The FLT2 cold-pristine records restore into an eager fleet as real
  // devices, bit-identical to eager construction from the same seed.
  FleetRuntime eager = make(5, 77, false);
  FleetRuntime witness = make(5, 77, false);
  fleet.run_local_round();  // advance the donor: restore must roll back
  ckpt::Reader in(out.data());
  eager.restore_state(in);
  for (std::size_t d = 0; d < 5; ++d)
    EXPECT_EQ(eager.controller(d).local_parameters(),
              witness.controller(d).local_parameters());
}

TEST(LazyFleet, Flt1SnapshotRestoresIntoLazyFleet) {
  FleetRuntime eager = make(4, 42, false);
  eager.run_local_round();
  ckpt::Writer out;
  eager.save_state(out);  // historic FLT1 layout

  FleetRuntime lazy = make(4, 42, true);
  ckpt::Reader in(out.data());
  lazy.restore_state(in);
  for (std::size_t d = 0; d < 4; ++d)
    EXPECT_EQ(lazy.controller(d).local_parameters(),
              eager.controller(d).local_parameters());
}

TEST(LazyFleet, MixedHotColdSnapshotResumesBitIdentically) {
  // The FLT2 matrix in one fleet: device 0 hot (trained), device 1
  // dehydrated (trained, blob), devices 2/3 cold-pristine. The snapshot
  // must restore into BOTH a lazy and an eager fleet and train on in
  // lockstep with an uninterrupted witness.
  FleetRuntime donor = make(4, 2026, true);
  FleetRuntime witness = make(4, 2026, true);
  // Train only devices 0 and 1 (per-device touch, not the whole-fleet op).
  for (const std::size_t d : {0u, 1u}) {
    donor.controller(d).run_local_round();
    witness.controller(d).run_local_round();
  }
  donor.dehydrate(1);
  ASSERT_EQ(donor.hot_count(), 1u);

  ckpt::Writer out;
  donor.save_state(out);
  // Saving kept the hot/cold split: still exactly one hot device.
  EXPECT_EQ(donor.hot_count(), 1u);

  FleetRuntime lazy = make(4, 2026, true);
  FleetRuntime eager = make(4, 2026, false);
  {
    ckpt::Reader in(out.data());
    lazy.restore_state(in);
  }
  {
    ckpt::Reader in(out.data());
    eager.restore_state(in);
  }
  // Restoring into the lazy fleet kept cold records cold.
  EXPECT_LE(lazy.hot_count(), 1u);
  for (FleetRuntime* fleet : {&lazy, &eager}) {
    fleet->run_local_round();
  }
  witness.run_local_round();
  for (std::size_t d = 0; d < 4; ++d) {
    EXPECT_EQ(lazy.controller(d).local_parameters(),
              witness.controller(d).local_parameters());
    EXPECT_EQ(eager.controller(d).local_parameters(),
              witness.controller(d).local_parameters());
  }
}

TEST(LazyFleet, SnapshotRestoresAcrossThreadCounts) {
  FleetRuntime serial = make(4, 8, true, 1);
  serial.run_local_round();
  const std::vector<std::size_t> keep = {0, 2};
  serial.dehydrate_inactive(keep);
  ckpt::Writer out;
  serial.save_state(out);

  FleetRuntime parallel = make(4, 8, true, 4);
  ckpt::Reader in(out.data());
  parallel.restore_state(in);
  serial.run_local_round();
  parallel.run_local_round();
  for (std::size_t d = 0; d < 4; ++d)
    EXPECT_EQ(parallel.controller(d).local_parameters(),
              serial.controller(d).local_parameters());
}

// --- all-or-nothing hydration --------------------------------------------

/// The state blob device 0 of a one-device lazy fleet leaves after one
/// local round, read back out of its FLT2 snapshot.
std::vector<std::uint8_t> trained_blob(const DeviceFaultConfig& faults = {}) {
  FleetRuntime donor = make(1, 31, true);
  if (faults.any()) donor.inject_faults(0, faults);
  donor.clients()[0]->run_local_round();
  donor.dehydrate(0);
  ckpt::Writer out;
  donor.save_state(out);
  ckpt::Reader in(out.data());
  EXPECT_EQ(ckpt::expect_tag_of(in, {ckpt::Tag{'F', 'L', 'T', '2'}}, "fleet"),
            0u);
  EXPECT_EQ(in.u64(), 1u);
  EXPECT_EQ(in.u8(), 2u);  // cold-dehydrated record
  return in.vec_u8();
}

/// A one-device FLT2 snapshot whose record is the given dehydrated blob.
std::vector<std::uint8_t> dehydrated_snapshot(
    const std::vector<std::uint8_t>& blob) {
  ckpt::Writer out;
  ckpt::write_tag(out, ckpt::Tag{'F', 'L', 'T', '2'});
  out.u64(1);
  out.u8(2);
  out.vec_u8(blob);
  return {out.data().begin(), out.data().end()};
}

/// Restores the snapshot into a fresh lazy fleet (the record stays cold),
/// then demands every hydration attempt fail without leaving the device
/// half-built.
void expect_hydration_rejected(const std::vector<std::uint8_t>& snapshot) {
  FleetRuntime fleet = make(1, 31, true);
  ckpt::Reader in(snapshot);
  fleet.restore_state(in);
  ASSERT_EQ(fleet.hot_count(), 0u);
  for (int attempt = 0; attempt < 2; ++attempt) {
    SCOPED_TRACE(attempt);
    EXPECT_THROW(fleet.hydrate(0), ckpt::CorruptSnapshotError);
    EXPECT_FALSE(fleet.hot(0));
    EXPECT_EQ(fleet.hot_count(), 0u);
    // The objects the blob was restored into are kept spare.
    EXPECT_EQ(fleet.spare_count(), 1u);
  }
}

TEST(LazyFleet, TruncatedBlobLeavesTheDeviceCold) {
  std::vector<std::uint8_t> blob = trained_blob();
  ASSERT_GT(blob.size(), 64u);
  blob.resize(blob.size() / 2);
  expect_hydration_rejected(dehydrated_snapshot(blob));
}

TEST(LazyFleet, BlobWithTrailingBytesIsRejected) {
  std::vector<std::uint8_t> blob = trained_blob();
  blob.insert(blob.end(), {0xde, 0xad, 0xbe});
  const std::vector<std::uint8_t> snapshot = dehydrated_snapshot(blob);
  expect_hydration_rejected(snapshot);

  // The eager fleet restores the record on the spot and must reject it
  // there.
  FleetRuntime eager = make(1, 31, false);
  ckpt::Reader in(snapshot);
  EXPECT_THROW(eager.restore_state(in), ckpt::CorruptSnapshotError);
}

TEST(LazyFleet, AttackerStateIntoAnHonestFleetIsRejected) {
  // A blob carrying uplink-attacker state, restored where that device is
  // honest: the attacker section is left over, not silently dropped.
  DeviceFaultConfig faults;
  faults.upload.attack = fed::UploadAttack::kStaleReplay;
  expect_hydration_rejected(dehydrated_snapshot(trained_blob(faults)));
}

// --- faulted devices -----------------------------------------------------

DeviceFaultConfig replay_attack_with_frozen_counters() {
  DeviceFaultConfig faults;
  faults.upload.attack = fed::UploadAttack::kStaleReplay;
  faults.upload.stale_rounds = 2;
  faults.upload.start_round = 1;
  faults.hardware.frozen_counters = true;
  faults.hardware.stuck_power_sensor = true;
  faults.hardware.stuck_power_w = 1.5;
  return faults;
}

TEST(LazyFleet, FaultedDevicesSurviveColdCyclesBitIdentically) {
  // A sampled federation over a lazy fleet whose attacked devices go cold
  // between rounds, against the same federation over an eager fleet.
  // Attacker and frozen-counter state must ride through the blobs.
  constexpr std::size_t kDevices = 6;
  FleetRuntime eager = make(kDevices, 404, false);
  FleetRuntime lazy = make(kDevices, 404, true);
  for (const std::size_t d : {3u, 4u, 5u}) {
    eager.inject_faults(d, replay_attack_with_frozen_counters());
    lazy.inject_faults(d, replay_attack_with_frozen_counters());
  }
  lazy.dehydrate_inactive({});
  ASSERT_EQ(lazy.hot_count(), 0u);

  fed::InProcessTransport eager_wire;
  fed::InProcessTransport lazy_wire;
  fed::FederatedAveraging eager_server(eager.clients(), &eager_wire);
  fed::FederatedAveraging lazy_server(lazy.clients(), &lazy_wire);
  fed::SamplingConfig sampling;
  sampling.fraction = 0.5;
  sampling.seed = 13;
  for (fed::FederatedAveraging* server : {&eager_server, &lazy_server}) {
    server->set_sampling(sampling);
    server->initialize(eager.controller(0).local_parameters());
  }

  std::vector<bool> trained(kDevices, false);
  std::size_t attacked_rehydrations = 0;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE(round);
    const fed::RoundResult e = eager_server.run_round();
    const fed::RoundResult l = lazy_server.run_round();
    ASSERT_EQ(e.participants, l.participants);
    for (const std::size_t d : l.participants) {
      // Cold before the round (dehydrate_inactive below) and trained
      // before: this round hydrated it from its blob.
      if (d >= 3 && trained[d]) ++attacked_rehydrations;
      trained[d] = true;
    }
    EXPECT_EQ(eager_server.global_model(), lazy_server.global_model());
    lazy.dehydrate_inactive({});
  }
  EXPECT_GT(attacked_rehydrations, 0u);
  for (std::size_t d = 0; d < kDevices; ++d) {
    EXPECT_EQ(lazy.controller(d).local_parameters(),
              eager.controller(d).local_parameters());
    EXPECT_EQ(lazy.attacker(d) != nullptr, eager.attacker(d) != nullptr);
  }
}

TEST(LazyFleet, InjectingNoFaultsMakesTheDeviceHonest) {
  FleetRuntime fleet = make(3, 61, true);
  FleetRuntime honest = make(3, 61, true);
  fleet.inject_faults(1, replay_attack_with_frozen_counters());
  fleet.inject_faults(2, replay_attack_with_frozen_counters());
  EXPECT_EQ(fleet.attacked_devices(), (std::vector<std::size_t>{1, 2}));

  fleet.inject_faults(1, DeviceFaultConfig{});
  EXPECT_EQ(fleet.attacked_devices(), (std::vector<std::size_t>{2}));
  EXPECT_EQ(fleet.attacker(1), nullptr);

  // The cleared config does not come back with the device.
  fleet.dehydrate(1);
  fleet.hydrate(1);
  EXPECT_EQ(fleet.attacker(1), nullptr);
  EXPECT_FALSE(fleet.processor(1).faults().any());
  for (int round = 0; round < 2; ++round) {
    fleet.clients()[1]->run_local_round();
    honest.clients()[1]->run_local_round();
    fleet.dehydrate(1);
  }
  EXPECT_EQ(fleet.clients()[1]->local_parameters(),
            honest.clients()[1]->local_parameters());
}

// --- app-list interning ----------------------------------------------------

/// A device built outside FleetRuntime, by the canonical make_hardware
/// loop, so it sees its own app list whatever the runtime interns.
struct ReferenceDevice {
  DeviceHardware hardware;
  std::unique_ptr<core::PowerController> controller;
};

std::vector<ReferenceDevice> reference_devices(
    const std::vector<std::vector<sim::AppProfile>>& apps,
    std::uint64_t seed) {
  util::Rng root(seed);
  std::vector<ReferenceDevice> devices;
  for (DeviceHardware& hardware :
       make_hardware(sim::ProcessorConfig{}, apps, root)) {
    ReferenceDevice device;
    device.controller = std::make_unique<core::PowerController>(
        tiny_controller(), hardware.processor.get(), hardware.brain_rng);
    device.hardware = std::move(hardware);
    devices.push_back(std::move(device));
  }
  return devices;
}

/// The processor snapshot stores the in-flight app profile verbatim, so
/// it tells apart even profiles that simulate the same.
std::vector<std::uint8_t> processor_bytes(const sim::Processor& processor) {
  ckpt::Writer out;
  processor.save_state(out);
  return {out.data().begin(), out.data().end()};
}

TEST(LazyFleet, InterningMergesOnlyBitIdenticalAppLists) {
  const auto suite = sim::splash2_suite();
  const std::vector<sim::AppProfile> a{suite[0], suite[1]};
  // A' differs from A by one phase field, 1 ulp apart; A'' by the sign of
  // a zero.
  std::vector<sim::AppProfile> a_ulp = a;
  double& cpi = a_ulp[0].phases[0].base_cpi;
  cpi = std::nextafter(cpi, 2.0 * cpi);
  sim::AppProfile zero = suite[2];
  zero.phases[0].llc_apki = 0.0;
  sim::AppProfile negative_zero = zero;
  negative_zero.phases[0].llc_apki = -0.0;

  const std::vector<std::vector<sim::AppProfile>> apps{
      a,
      std::vector<sim::AppProfile>{suite[0], suite[1]},  // equal, own copy
      {suite[1], suite[0]},                              // reordered
      a_ulp,
      {zero},
      {negative_zero},
      a,
  };
  constexpr std::uint64_t kSeed = 88;
  const auto build = [&](bool lazy) {
    return FleetRuntime({tiny_controller()}, sim::ProcessorConfig{}, apps,
                        kSeed, FleetOptions{1, lazy});
  };
  FleetRuntime eager = build(false);
  FleetRuntime lazy = build(true);
  std::vector<ReferenceDevice> reference = reference_devices(apps, kSeed);
  for (int round = 0; round < 2; ++round) {
    eager.run_local_round();
    lazy.run_local_round();
    lazy.dehydrate_inactive({});
    for (ReferenceDevice& device : reference)
      device.controller->run_local_round();
  }
  for (std::size_t d = 0; d < apps.size(); ++d) {
    SCOPED_TRACE(d);
    const auto want = reference[d].controller->local_parameters();
    const auto want_bytes = processor_bytes(*reference[d].hardware.processor);
    EXPECT_EQ(eager.controller(d).local_parameters(), want);
    EXPECT_EQ(lazy.controller(d).local_parameters(), want);
    EXPECT_EQ(processor_bytes(eager.processor(d)), want_bytes);
    EXPECT_EQ(processor_bytes(lazy.processor(d)), want_bytes);
  }

  // The check is sharp: had device 3 been handed A, or device 5 the +0.0
  // list, it would have diverged from its reference.
  std::vector<std::vector<sim::AppProfile>> merged = apps;
  merged[3] = a;
  merged[5] = {zero};
  std::vector<ReferenceDevice> wrong = reference_devices(merged, kSeed);
  for (int round = 0; round < 2; ++round)
    for (ReferenceDevice& device : wrong) device.controller->run_local_round();
  for (const std::size_t d : {3u, 5u})
    EXPECT_NE(processor_bytes(*wrong[d].hardware.processor),
              processor_bytes(*reference[d].hardware.processor));
}

// --- experiment wiring ---------------------------------------------------

core::ExperimentConfig scale_config(bool lazy) {
  core::ExperimentConfig config;
  config.rounds = 4;
  config.controller.steps_per_round = 12;
  config.eval.episode_intervals = 8;
  config.seed = 19;
  config.sampling.fraction = 0.5;
  config.sampling.seed = 3;
  config.lazy_fleet = lazy;
  return config;
}

TEST(LazyFleet, FederatedExperimentBitIdenticalToEager) {
  // The end-to-end contract: run_federated with lazy_fleet = true (lazy
  // construction + between-round dehydration) reproduces the eager run bit
  // for bit, including under C-fraction sampling.
  const auto apps = n_device_apps(4);
  const auto suite = sim::splash2_suite();
  const auto eager = core::run_federated(scale_config(false), apps, suite,
                                         true);
  const auto lazy = core::run_federated(scale_config(true), apps, suite,
                                        true);
  EXPECT_EQ(eager.global_params, lazy.global_params);
  EXPECT_EQ(eager.traffic.uplink_bytes, lazy.traffic.uplink_bytes);
  ASSERT_EQ(eager.devices.size(), lazy.devices.size());
  for (std::size_t d = 0; d < eager.devices.size(); ++d) {
    EXPECT_EQ(eager.devices[d].reward, lazy.devices[d].reward);
    EXPECT_EQ(eager.devices[d].mean_power_w, lazy.devices[d].mean_power_w);
  }
}

TEST(LazyFleet, FaultedFederatedExperimentBitIdenticalToEager) {
  // Compromised devices (stale-replay uplinks plus frozen counters and a
  // stuck power sensor) under C-fraction sampling: between-round
  // dehydration must carry their attacker and fault state.
  const auto run = [](bool lazy) {
    core::ExperimentConfig config = scale_config(lazy);
    config.rounds = 8;
    config.faults.attack = fed::UploadAttack::kStaleReplay;
    config.faults.stale_rounds = 2;
    config.faults.start_round = 1;
    config.faults.fraction = 0.5;
    config.faults.hardware.frozen_counters = true;
    config.faults.hardware.stuck_power_sensor = true;
    config.faults.hardware.stuck_power_w = 1.5;
    return core::run_federated(config, n_device_apps(4),
                               sim::splash2_suite(), true);
  };
  const auto eager = run(false);
  const auto lazy = run(true);
  EXPECT_EQ(eager.robustness.compromised,
            (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(eager.robustness.compromised, lazy.robustness.compromised);
  EXPECT_EQ(eager.global_params, lazy.global_params);
  EXPECT_EQ(eager.traffic.uplink_bytes, lazy.traffic.uplink_bytes);
  ASSERT_EQ(eager.devices.size(), lazy.devices.size());
  for (std::size_t d = 0; d < eager.devices.size(); ++d) {
    EXPECT_EQ(eager.devices[d].reward, lazy.devices[d].reward);
    EXPECT_EQ(eager.devices[d].mean_power_w, lazy.devices[d].mean_power_w);
  }
}

/// The unsigned integer field `key` of a flat JSONL object line.
std::uint64_t jsonl_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing from " << line;
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + needle.size()));
}

TEST(LazyFleet, HotSetIsOneRoundsParticipants) {
  // The per-round JSONL records the hot set right after the commit. The
  // previous round's participants went cold before this round hydrated
  // its own, so only this round's participants (plus a chaos shock's
  // device) are hot; keeping them until the round ended would read ~2x.
  for (const bool chaos : {false, true}) {
    SCOPED_TRACE(chaos ? "chaos" : "clean");
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        (chaos ? "fedpower_lazy_hot_chaos.jsonl"
               : "fedpower_lazy_hot_clean.jsonl");
    std::filesystem::remove(path);  // the writer appends
    core::ExperimentConfig config;
    config.rounds = 5;
    config.controller.steps_per_round = 4;
    config.seed = 23;
    config.sampling.fraction = 0.05;
    config.sampling.seed = 8;
    config.lazy_fleet = true;
    config.metrics_jsonl = path.string();
    if (chaos) {
      config.chaos.enabled = true;
      config.chaos.leave_probability = 0.1;
      config.chaos.shock_probability = 1.0;
    }
    core::run_federated(config, n_device_apps(2000), sim::splash2_suite(),
                        /*eval_each_round=*/false);
    std::ifstream in(path);
    std::string line;
    std::size_t rounds = 0;
    while (std::getline(in, line)) {
      SCOPED_TRACE(line);
      const std::uint64_t participants = jsonl_field(line, "participants");
      const std::uint64_t hot = jsonl_field(line, "hot_devices");
      EXPECT_EQ(participants, 100u);
      EXPECT_GT(hot, 0u);
      EXPECT_LE(hot, participants + 1);
      ++rounds;
    }
    EXPECT_EQ(rounds, config.rounds);
    std::filesystem::remove(path);
  }
}

/// The hot devices found by looking at every device.
std::vector<std::size_t> scanned_hot(const FleetRuntime& fleet) {
  std::vector<std::size_t> out;
  for (std::size_t d = 0; d < fleet.size(); ++d)
    if (fleet.hot(d)) out.push_back(d);
  return out;
}

TEST(LazyFleet, HotListMatchesAScanOfEveryDevice) {
  // Seeded sequences of hydrations, dehydrations, sweeps, fault injections
  // and snapshot restores (some of which throw, when the snapshot's
  // attacker sections no longer match the fleet's faults): after each
  // step the kept hot list holds exactly the hot devices, once each.
  constexpr std::size_t kDevices = 12;
  std::size_t restores = 0;
  std::size_t failed_restores = 0;
  for (const bool lazy : {true, false}) {
    for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      SCOPED_TRACE(::testing::Message()
                   << (lazy ? "lazy" : "eager") << " seed " << seed);
      FleetRuntime fleet = make(kDevices, seed, lazy);
      util::Rng rng(seed);
      ckpt::Writer saved;
      fleet.save_state(saved);
      for (int step = 0; step < 120; ++step) {
        SCOPED_TRACE(step);
        const std::size_t d = rng.uniform_index(kDevices);
        switch (rng.uniform_index(6)) {
          case 0:
            fleet.hydrate(d);
            break;
          case 1:
            fleet.dehydrate(d);
            break;
          case 2: {
            std::vector<std::size_t> keep;
            for (std::size_t k = 0; k < kDevices; ++k)
              if (rng.bernoulli(0.3)) keep.push_back(k);
            fleet.dehydrate_inactive(keep);
            break;
          }
          case 3:
            fleet.inject_faults(d, rng.bernoulli(0.5)
                                       ? replay_attack_with_frozen_counters()
                                       : DeviceFaultConfig{});
            break;
          case 4:
            saved.clear();
            fleet.save_state(saved);
            break;
          default: {
            ++restores;
            ckpt::Reader in(saved.data());
            try {
              fleet.restore_state(in);
            } catch (const ckpt::CkptError&) {
              ++failed_restores;
            }
            break;
          }
        }
        std::vector<std::size_t> listed = fleet.hot_devices();
        std::sort(listed.begin(), listed.end());
        ASSERT_EQ(listed, scanned_hot(fleet));
        ASSERT_EQ(fleet.hot_count(), listed.size());
      }
    }
  }
  EXPECT_GT(restores, failed_restores);
  EXPECT_GT(failed_restores, 0u);
}

}  // namespace
}  // namespace fedpower::runtime
