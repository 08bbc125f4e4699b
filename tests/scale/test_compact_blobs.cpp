// Float32 agent snapshots in a lazy FleetRuntime (DESIGN.md §9, §11). A
// device whose weights are a decoded float32 broadcast that no update has
// moved saves them as floats (AGNF); any other device saves doubles
// (AGNT). Both read back with every bit, so a lazy fleet whose blobs hold
// either layout, or a mix, must stay bit-identical to an eager fleet that
// never serializes: in parameters, replay and saved bytes, across a
// snapshot restore, and when a compact device's broadcast is lost on the
// way.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/fault_injection.hpp"
#include "fed/federation.hpp"
#include "fed/transport.hpp"
#include "runtime/fleet_runtime.hpp"
#include "sim/splash2.hpp"

namespace fedpower::runtime {
namespace {

constexpr std::size_t kDevices = 8;

std::vector<std::vector<sim::AppProfile>> device_apps() {
  const auto suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps;
  for (std::size_t d = 0; d < kDevices; ++d)
    apps.push_back({suite[d % suite.size()]});
  return apps;
}

/// Table I but for a smaller ring and batch; an update every H = 20 steps.
core::ControllerConfig controller(std::size_t steps_per_round) {
  core::ControllerConfig config;
  config.agent.replay_capacity = 64;
  config.agent.batch_size = 8;
  config.steps_per_round = steps_per_round;
  return config;
}

FleetRuntime make_fleet(std::size_t steps_per_round, bool lazy) {
  return FleetRuntime({controller(steps_per_round)}, sim::ProcessorConfig{},
                      device_apps(), /*seed=*/31, FleetOptions{1, lazy});
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// How often the 4-byte tag occurs in bytes.
std::size_t count_tag(const std::vector<std::uint8_t>& bytes,
                      const std::string& tag) {
  std::size_t count = 0;
  for (std::size_t i = 0; i + 4 <= bytes.size(); ++i)
    count += std::memcmp(bytes.data() + i, tag.data(), 4) == 0 ? 1 : 0;
  return count;
}

template <class Component>
std::vector<std::uint8_t> saved_bytes(const Component& component) {
  ckpt::Writer out;
  component.save_state(out);
  return out.take();
}

/// One fleet driven by a float32-codec FedAvg server at C = 1/2, through
/// an optional fault injector.
struct Federation {
  Federation(std::size_t steps_per_round, bool lazy,
             const std::optional<fed::FaultInjectionConfig>& faults)
      : fleet(make_fleet(steps_per_round, lazy)),
        injector(faults ? std::optional<fed::FaultInjectingTransport>(
                              std::in_place, &transport, *faults)
                        : std::nullopt),
        server(fleet.clients(),
               injector ? static_cast<fed::Transport*>(&*injector)
                        : &transport) {
    fed::SamplingConfig sampling;
    sampling.fraction = 0.5;
    sampling.seed = 9;
    server.set_sampling(sampling);
    server.initialize(fleet.controller(0).local_parameters());
    fleet.dehydrate_inactive({});
  }

  /// One round as core::run_federated drives it: last round's participants
  /// go cold first. A round that misses its quorum commits nothing.
  std::optional<fed::RoundResult> round() {
    fleet.dehydrate_inactive({});
    try {
      return server.run_round();
    } catch (const fed::QuorumError&) {
      return std::nullopt;
    }
  }

  FleetRuntime fleet;
  fed::InProcessTransport transport;
  std::optional<fed::FaultInjectingTransport> injector;
  fed::FederatedAveraging server;
};

/// Device d of a and b agree in parameters, replay contents and state
/// bytes.
void expect_same_device(FleetRuntime& a, FleetRuntime& b, std::size_t d) {
  SCOPED_TRACE("device " + std::to_string(d));
  EXPECT_TRUE(same_bits(a.controller(d).local_parameters(),
                        b.controller(d).local_parameters()));
  const rl::ReplayBuffer& ra = a.controller(d).agent().replay();
  const rl::ReplayBuffer& rb = b.controller(d).agent().replay();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra.at(i).state, rb.at(i).state);
    EXPECT_EQ(ra.at(i).action, rb.at(i).action);
    EXPECT_EQ(ra.at(i).reward, rb.at(i).reward);
  }
  EXPECT_EQ(saved_bytes(a.controller(d)), saved_bytes(b.controller(d)));
  EXPECT_EQ(saved_bytes(a.processor(d)), saved_bytes(b.processor(d)));
}

/// Every device trains a round on the weights it holds (restored from its
/// blob, if it has one), then a round from the same broadcast.
void run_on(FleetRuntime& fleet, const std::vector<double>& global) {
  for (fed::FederatedClient* client : fleet.clients())
    client->run_local_round();
  for (fed::FederatedClient* client : fleet.clients()) {
    client->receive_global(global);
    client->run_local_round();
  }
}

struct BlobCase {
  const char* name;
  std::size_t steps_per_round;
  std::size_t rounds;
  bool compact;  ///< some agent saved as AGNF
  bool full;     ///< some agent saved as AGNT
};

TEST(CompactBlobs, LazyFleetMatchesEagerWhateverItsBlobsHold) {
  // 4 steps a round never reach H = 20 in 4 rounds: every saved agent
  // holds a broadcast (AGNF). 20 steps end every round with an update
  // (AGNT). 8 steps update in every third participation: a mix.
  for (const BlobCase& c : {BlobCase{"compact", 4, 4, true, false},
                            BlobCase{"full", 20, 4, false, true},
                            BlobCase{"mixed", 8, 6, true, true}}) {
    SCOPED_TRACE(c.name);
    Federation eager(c.steps_per_round, /*lazy=*/false, std::nullopt);
    Federation lazy(c.steps_per_round, /*lazy=*/true, std::nullopt);
    for (std::size_t r = 0; r < c.rounds; ++r) {
      eager.round();
      lazy.round();
      ASSERT_TRUE(same_bits(lazy.server.global_model(),
                            eager.server.global_model()))
          << "round " << r;
    }
    const std::vector<std::uint8_t> snapshot = saved_bytes(lazy.fleet);
    EXPECT_EQ(count_tag(snapshot, "AGNF") > 0, c.compact);
    EXPECT_EQ(count_tag(snapshot, "AGNT") > 0, c.full);

    FleetRuntime resumed = make_fleet(c.steps_per_round, /*lazy=*/true);
    ckpt::Reader in(snapshot);
    resumed.restore_state(in);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(saved_bytes(resumed), snapshot);
    for (std::size_t d = 0; d < kDevices; ++d) {
      expect_same_device(lazy.fleet, eager.fleet, d);
      expect_same_device(resumed, eager.fleet, d);
    }

    const std::vector<double> global = eager.server.global_model();
    run_on(eager.fleet, global);
    run_on(lazy.fleet, global);
    run_on(resumed, global);
    for (std::size_t d = 0; d < kDevices; ++d) {
      expect_same_device(lazy.fleet, eager.fleet, d);
      expect_same_device(resumed, eager.fleet, d);
    }
    EXPECT_EQ(saved_bytes(resumed), saved_bytes(lazy.fleet));
  }
}

TEST(CompactBlobs, LostBroadcastToACompactDeviceMatchesEager) {
  // Dropped and truncated transfers, both ways. A drawn device whose
  // broadcast is lost stays cold for the round; once it is reached again
  // it hydrates from its blob, which must hold exactly the bits the eager
  // twin kept in memory.
  fed::FaultInjectionConfig faults;
  faults.drop_probability = 0.25;
  faults.truncate_probability = 0.1;
  faults.seed = 17;
  Federation eager(4, /*lazy=*/false, faults);
  Federation lazy(4, /*lazy=*/true, faults);
  std::vector<bool> reached(kDevices, false);
  std::size_t lost_compact = 0;
  for (std::size_t r = 0; r < 10; ++r) {
    SCOPED_TRACE("round " + std::to_string(r));
    const auto want = eager.round();
    const auto got = lazy.round();
    ASSERT_EQ(got.has_value(), want.has_value());
    ASSERT_TRUE(same_bits(lazy.server.global_model(),
                          eager.server.global_model()));
    if (!got) continue;
    ASSERT_EQ(got->participants, want->participants);
    for (const std::size_t d : got->participants) {
      // Reached participants are hot until the next sweep; a cold one lost
      // its broadcast. Its blob is AGNF while the eager twin has not
      // trained since a broadcast reached it.
      if (lazy.fleet.hot(d)) {
        reached[d] = true;
      } else if (reached[d] &&
                 eager.fleet.controller(d).agent().update_count() == 0) {
        ++lost_compact;
      }
    }
  }
  EXPECT_GT(lost_compact, 0u);  // the case the test exists for happened
  EXPECT_GT(lazy.injector->fault_stats().drops, 0u);
  EXPECT_EQ(saved_bytes(lazy.server), saved_bytes(eager.server));
  for (std::size_t d = 0; d < kDevices; ++d)
    expect_same_device(lazy.fleet, eager.fleet, d);
}

}  // namespace
}  // namespace fedpower::runtime
