// Recycled devices of a lazy FleetRuntime (DESIGN.md §11): dehydration
// keeps a device's objects as a spare, and the next hydration resets them
// to the new device's initial state instead of constructing. A generated
// equivalence check drives seeded cases — the agent's exploration, drift
// adaptation and FedProx, thermal modelling, hardware faults, upload
// attacks, per-device poisoned configs, and how long the last owner
// trained — and demands that a recycled device equal the same device of an
// eager fleet, built from scratch, in its state bytes: on hydration, after
// further training, and after another cold cycle through a dirty spare.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "ckpt/errors.hpp"
#include "fed/transport.hpp"
#include "runtime/fleet_runtime.hpp"
#include "sim/splash2.hpp"
#include "util/rng.hpp"

namespace fedpower::runtime {
namespace {

constexpr std::size_t kDevices = 6;

/// Two apps per device; the odd devices run them shortened to about an
/// interval each, so runs complete and start within a few steps.
std::vector<std::vector<sim::AppProfile>> device_apps() {
  const auto suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps;
  for (std::size_t d = 0; d < kDevices; ++d) {
    const double scale = d % 2 == 1 ? 0.02 : 1.0;
    apps.push_back({suite[(3 * d) % suite.size()].scaled(scale),
                    suite[(3 * d + 1) % suite.size()].scaled(scale)});
  }
  return apps;
}

/// One generated case: the configs and faults of a six-device fleet and
/// the script the two fleets are driven through.
struct RecyclingCase {
  std::vector<core::ControllerConfig> configs;
  sim::ProcessorConfig processor;
  std::vector<DeviceFaultConfig> faults;
  std::uint64_t fleet_seed = 0;
  std::size_t owner = 0;         ///< trains, then is dehydrated first
  std::size_t target = 0;        ///< hydrated into the owner's objects
  std::size_t second_owner = 0;  ///< dirties the spare before the target
                                 ///< comes back
  std::size_t owner_steps = 0;   ///< K: the last owner's training steps
  std::size_t owner_rounds = 0;  ///< federated rounds the owner joins
  std::size_t target_steps = 0;  ///< N: steps after each hydration
  bool target_touched = false;   ///< target dehydrated once before
  bool shared_config = true;
};

DeviceFaultConfig random_faults(util::Rng& rng) {
  DeviceFaultConfig faults;
  if (rng.bernoulli(0.5)) {
    faults.hardware.stuck_power_sensor = rng.bernoulli(0.5);
    faults.hardware.stuck_power_w = 0.2 + rng.uniform();
    faults.hardware.frozen_counters = rng.bernoulli(0.5);
    faults.hardware.dvfs_stuck = rng.bernoulli(0.3);
  }
  if (rng.bernoulli(0.5)) {
    const fed::UploadAttack attacks[] = {fed::UploadAttack::kSignFlip,
                                         fed::UploadAttack::kScale,
                                         fed::UploadAttack::kStaleReplay};
    faults.upload.attack = attacks[rng.uniform_index(3)];
    faults.upload.scale = 2.0 + 3.0 * rng.uniform();
    faults.upload.stale_rounds = 1 + rng.uniform_index(3);
    faults.upload.start_round = rng.uniform_index(2);
  }
  return faults;
}

RecyclingCase generate(std::uint64_t seed) {
  util::Rng rng(seed);
  RecyclingCase c;
  core::ControllerConfig config;
  config.agent.replay_capacity = 8 + rng.uniform_index(16);
  config.agent.batch_size = 4;
  config.agent.optimize_interval = 2 + rng.uniform_index(4);
  config.agent.prox_mu = rng.bernoulli(0.5) ? 0.05 : 0.0;
  config.agent.exploration = rng.bernoulli(0.5)
                                 ? rl::ExplorationMode::kEpsilonGreedy
                                 : rl::ExplorationMode::kSoftmax;
  config.drift_adaptation = rng.bernoulli(0.5);
  config.drift.warmup = 2;
  config.drift.cooldown = 3;
  config.drift.drop_threshold = 0.01;
  config.steps_per_round = 1 + rng.uniform_index(4);
  c.configs = {config};
  c.shared_config = rng.bernoulli(0.7);
  if (!c.shared_config) {
    // Reward poisoning: compromised devices get their own config.
    c.configs.assign(kDevices, config);
    for (std::size_t d = 0; d < kDevices; ++d)
      if (rng.bernoulli(0.4)) c.configs[d].reward_poison_scale = -2.0;
  }
  c.processor.enable_thermal = rng.bernoulli(0.5);
  c.faults.resize(kDevices);
  for (DeviceFaultConfig& faults : c.faults)
    if (rng.bernoulli(0.5)) faults = random_faults(rng);
  c.fleet_seed = rng.next_u64();
  c.owner = rng.uniform_index(kDevices);
  do {
    c.target = rng.uniform_index(kDevices);
  } while (c.target == c.owner);
  do {
    c.second_owner = rng.uniform_index(kDevices);
  } while (c.second_owner == c.target);
  c.owner_steps = rng.uniform_index(3) == 0 ? 0 : rng.uniform_index(40);
  c.owner_rounds = rng.uniform_index(3);
  c.target_steps = 1 + rng.uniform_index(12);
  c.target_touched = rng.bernoulli(0.5);
  return c;
}

/// A device's state as a fleet snapshot holds it: processor, controller
/// and, when armed, the uplink attacker.
std::vector<std::uint8_t> device_bytes(FleetRuntime& fleet, std::size_t d) {
  ckpt::Writer out;
  fleet.processor(d).save_state(out);
  fleet.controller(d).save_state(out);
  if (const fed::ByzantineClient* attacker = fleet.attacker(d))
    attacker->save_state(out);
  return out.take();
}

/// The same script on an eager fleet (every device built from scratch)
/// and a lazy one that recycles its devices.
class Pair {
 public:
  explicit Pair(const RecyclingCase& c)
      : eager_(c.configs, c.processor, device_apps(), c.fleet_seed,
               FleetOptions{1, false}),
        lazy_(c.configs, c.processor, device_apps(), c.fleet_seed,
              FleetOptions{1, true}) {
    for (std::size_t d = 0; d < kDevices; ++d) {
      if (!c.faults[d].any()) continue;
      eager_.inject_faults(d, c.faults[d]);
      lazy_.inject_faults(d, c.faults[d]);
    }
    // Every device cold; the faulted ones leave armed objects spare.
    lazy_.dehydrate_inactive({});
    global_ = eager_.controller(0).local_parameters();
    for (std::size_t i = 0; i < global_.size(); ++i)
      global_[i] += 0.01 * static_cast<double>(i % 5);
  }

  FleetRuntime& lazy() { return lazy_; }

  /// One federated round of device d, through its client view.
  void round(std::size_t d) {
    for (FleetRuntime* fleet : {&eager_, &lazy_}) {
      fed::FederatedClient* client = fleet->clients()[d];
      client->receive_global(global_);
      client->run_local_round();
      (void)client->local_parameters();
    }
  }

  void steps(std::size_t d, std::size_t n) {
    eager_.controller(d).run_steps(n);
    lazy_.controller(d).run_steps(n);
  }

  void expect_equal(std::size_t d, const std::string& when) {
    SCOPED_TRACE(when + ", device " + std::to_string(d));
    EXPECT_EQ(device_bytes(lazy_, d), device_bytes(eager_, d));
  }

 private:
  FleetRuntime eager_;
  FleetRuntime lazy_;
  std::vector<double> global_;
};

TEST(DeviceRecycling, RecycledDevicesEqualFreshlyBuiltOnes) {
  std::size_t recycled = 0;
  std::size_t attacked_into_honest = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("case seed " + std::to_string(seed));
    const RecyclingCase c = generate(seed);
    Pair pair(c);
    FleetRuntime& lazy = pair.lazy();

    if (c.target_touched) {
      // The target's next hydration restores a blob, not a pristine one.
      pair.round(c.target);
      lazy.dehydrate(c.target);
    }
    // The last owner (itself hydrated into whatever object was spare)
    // trains K steps and joins some rounds, then goes cold: its objects
    // are the spare the target is hydrated into.
    for (std::size_t r = 0; r < c.owner_rounds; ++r) pair.round(c.owner);
    pair.steps(c.owner, c.owner_steps);
    const std::size_t spares = lazy.spare_count();
    lazy.dehydrate(c.owner);
    ASSERT_EQ(lazy.spare_count(), c.shared_config ? spares + 1 : 0u);

    lazy.hydrate(c.target);
    EXPECT_EQ(lazy.spare_count(), spares);
    if (c.shared_config) {
      ++recycled;
      if (c.faults[c.owner].upload.attack != fed::UploadAttack::kNone &&
          !c.faults[c.target].any())
        ++attacked_into_honest;
    }
    pair.expect_equal(c.target, "hydrated");
    pair.steps(c.target, c.target_steps);
    pair.round(c.target);
    pair.expect_equal(c.target, "trained");

    // Another cold cycle: a second owner dirties the target's objects
    // before the target comes back into them.
    lazy.dehydrate(c.target);
    pair.steps(c.second_owner, c.owner_steps);
    pair.round(c.second_owner);
    lazy.dehydrate(c.second_owner);
    pair.expect_equal(c.target, "rehydrated");
    pair.steps(c.target, c.target_steps);
    pair.expect_equal(c.target, "retrained");
    pair.expect_equal(c.second_owner, "second owner rehydrated");
  }
  // The cases cover recycling, and an attacked owner's objects reset into
  // an honest device.
  EXPECT_GT(recycled, 20u);
  EXPECT_GT(attacked_into_honest, 0u);
}

TEST(DeviceRecycling, SparesAreFilledByDehydrationOnly) {
  FleetRuntime fleet({core::ControllerConfig{}}, sim::ProcessorConfig{},
                     device_apps(), 3, FleetOptions{1, true});
  EXPECT_EQ(fleet.spare_count(), 0u);  // nothing is built ahead of time
  for (std::size_t d = 0; d < 4; ++d) fleet.hydrate(d);
  EXPECT_EQ(fleet.spare_count(), 0u);
  fleet.dehydrate(0);
  EXPECT_EQ(fleet.spare_count(), 1u);
  fleet.hydrate(5);  // takes the spare
  EXPECT_EQ(fleet.spare_count(), 0u);
  fleet.dehydrate(1);
  // A sweep frees the spares left from before it (device 1's), then keeps
  // what it released: never more than the last sweep released.
  const std::vector<std::size_t> keep = {5};
  fleet.dehydrate_inactive(keep);
  EXPECT_EQ(fleet.spare_count(), 2u);  // devices 2 and 3
  fleet.dehydrate_inactive({});
  EXPECT_EQ(fleet.spare_count(), 1u);  // device 5

  FleetRuntime eager({core::ControllerConfig{}}, sim::ProcessorConfig{},
                     device_apps(), 3, FleetOptions{1, false});
  eager.dehydrate_inactive({});
  EXPECT_EQ(eager.spare_count(), 0u);
}

TEST(DeviceRecycling, PerDeviceConfigsKeepNoSpares) {
  // A spare is reset into whichever device hydrates next, so it must have
  // been built with that device's config: a fleet whose devices have
  // configs of their own constructs every hydration.
  std::vector<core::ControllerConfig> configs(kDevices);
  configs[2].reward_poison_scale = -1.0;
  FleetRuntime fleet(configs, sim::ProcessorConfig{}, device_apps(), 3,
                     FleetOptions{1, true});
  fleet.hydrate(2);
  fleet.dehydrate(2);
  EXPECT_EQ(fleet.spare_count(), 0u);
}

}  // namespace
}  // namespace fedpower::runtime
