// Snapshot-format goldens: FNV-1a hashes of the raw round-driver snapshot
// bytes after four rounds of a scripted fleet, one per section layout —
// FAVG (clean), FAVG+DFNS (defense armed), SFED+SRVR in deterministic
// commit mode (identical at 1 and 4 workers) and SFED+SRVR in throughput
// mode. Every case runs with seeded transport faults and C = 0.5 sampling,
// so the participation stream, the dropout bookkeeping and the per-client
// records all reach the bytes. The resume tests only compare a snapshot
// against itself; these pin the format, so a refactor of the round driver
// that changes a single snapshot byte fails here.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/fault_injection.hpp"
#include "fed/federation.hpp"
#include "serve/server.hpp"

namespace fedpower {
namespace {

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

/// FNV-1a over the snapshot bytes, in order.
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The fleet, wire and sampling every golden shares. The last client's
/// outsized delta gives the defense pipeline something to clip.
struct Rig {
  std::vector<std::unique_ptr<ScriptedClient>> fleet;
  fed::InProcessTransport inner;
  fed::FaultInjectingTransport wire{&inner, faults()};

  Rig() {
    for (const double delta : {0.5, -1.0, 2.0, 0.25, -0.75, 1.5, 0.1, 40.0})
      fleet.push_back(std::make_unique<ScriptedClient>(delta));
  }

  static fed::FaultInjectionConfig faults() {
    fed::FaultInjectionConfig config;
    config.drop_probability = 0.15;
    config.truncate_probability = 0.1;
    config.seed = 21;
    return config;
  }

  static fed::SamplingConfig sampling() {
    fed::SamplingConfig config;
    config.fraction = 0.5;
    config.seed = 9;
    return config;
  }

  std::vector<fed::FederatedClient*> clients() const {
    std::vector<fed::FederatedClient*> out;
    for (const auto& client : fleet) out.push_back(client.get());
    return out;
  }
};

const std::vector<double> kInit{0.0, 10.0, -5.0, 1.25};

/// Runs four rounds (an under-quorum round counts as run: its draw and
/// transfers still advance the streams) and hashes the snapshot.
std::uint64_t four_rounds_then_hash(fed::FederatedAveraging& driver,
                                    const Rig& rig) {
  driver.set_sampling(Rig::sampling());
  driver.initialize(kInit);
  for (int round = 0; round < 4; ++round) {
    try {
      driver.run_round();
    } catch (const fed::QuorumError&) {
    }
  }
  EXPECT_GT(driver.rounds_completed(), 0u);
  // Guard against a vacuous golden: the seeded faults must have fired.
  EXPECT_GT(rig.wire.fault_stats().drops, 0u);
  EXPECT_GT(rig.wire.fault_stats().truncations, 0u);
  ckpt::Writer out;
  driver.save_state(out);
  return fnv1a(out.data());
}

TEST(SnapshotGoldens, FavgClean) {
  Rig rig;
  fed::FederatedAveraging driver(rig.clients(), &rig.wire);
  EXPECT_EQ(four_rounds_then_hash(driver, rig), 9284232341565925853ULL);
}

TEST(SnapshotGoldens, FavgWithDefense) {
  Rig rig;
  fed::FederatedAveraging driver(rig.clients(), &rig.wire);
  fed::DefenseConfig defense;
  defense.enabled = true;
  defense.warmup_rounds = 1;
  defense.norm_min_samples = 2;
  driver.enable_defense(defense);
  EXPECT_EQ(four_rounds_then_hash(driver, rig), 14365247467793679627ULL);
}

TEST(SnapshotGoldens, SfedDeterministicAtOneAndFourWorkers) {
  for (const std::size_t workers : {1u, 4u}) {
    Rig rig;
    serve::ServeConfig config;
    config.workers = workers;
    serve::ShardedServer server(rig.fleet.size(), config);
    fed::FederatedAveraging driver(rig.clients(), &rig.wire, &server);
    EXPECT_EQ(four_rounds_then_hash(driver, rig), 4758735230460686301ULL)
        << workers << " workers";
  }
}

TEST(SnapshotGoldens, SfedThroughputOneWorker) {
  Rig rig;
  serve::ServeConfig config;
  config.mode = serve::CommitMode::kThroughput;
  serve::ShardedServer server(rig.fleet.size(), config);
  fed::FederatedAveraging driver(rig.clients(), &rig.wire, &server);
  EXPECT_EQ(four_rounds_then_hash(driver, rig), 3275698971871877752ULL);
}

}  // namespace
}  // namespace fedpower
