// Snapshot-format goldens: FNV-1a hashes of the raw round-driver snapshot
// bytes after four rounds of a scripted fleet, one per section layout —
// FAVG (clean), FAVG+DFNS (defense armed), SFED+SRV2 in deterministic
// commit mode (identical at 1 and 4 workers), SFED+SRV2 in throughput
// mode and SFED+SRV2+DFNS (defense armed on the sharded server, identical
// at 1 and 4 workers). Every case runs with seeded transport faults and
// C = 0.5 sampling, so the participation stream, the dropout bookkeeping
// and the per-client records all reach the bytes. The resume tests only
// compare a snapshot against itself; these pin the format, so a refactor
// of the round driver that changes a single snapshot byte fails here.
//
// Legacy goldens: the two SFED+SRVR snapshots of the last build that kept
// a norm screen and a reputation in the sharded server, captured as bytes
// under goldens/. They still hash to their old constants, restore into
// today's build and continue bit-identically with an uninterrupted run.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
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

/// Runs rounds (an under-quorum round counts as run: its draw and
/// transfers still advance the streams).
void run_rounds(fed::FederatedAveraging& driver, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    try {
      driver.run_round();
    } catch (const fed::QuorumError&) {
    }
  }
}

std::vector<std::uint8_t> snapshot(const fed::FederatedAveraging& driver) {
  ckpt::Writer out;
  driver.save_state(out);
  return out.take();
}

/// Runs four rounds from kInit and hashes the snapshot.
std::uint64_t four_rounds_then_hash(fed::FederatedAveraging& driver,
                                    const Rig& rig) {
  driver.set_sampling(Rig::sampling());
  driver.initialize(kInit);
  run_rounds(driver, 4);
  EXPECT_GT(driver.rounds_completed(), 0u);
  // Guard against a vacuous golden: the seeded faults must have fired.
  EXPECT_GT(rig.wire.fault_stats().drops, 0u);
  EXPECT_GT(rig.wire.fault_stats().truncations, 0u);
  return fnv1a(snapshot(driver));
}

/// The defense every defended golden arms: screens live from round two.
fed::DefenseConfig golden_defense() {
  fed::DefenseConfig defense;
  defense.enabled = true;
  defense.warmup_rounds = 1;
  defense.norm_min_samples = 2;
  return defense;
}

TEST(SnapshotGoldens, FavgClean) {
  Rig rig;
  fed::FederatedAveraging driver(rig.clients(), &rig.wire);
  EXPECT_EQ(four_rounds_then_hash(driver, rig), 9284232341565925853ULL);
}

TEST(SnapshotGoldens, FavgWithDefense) {
  Rig rig;
  fed::FederatedAveraging driver(rig.clients(), &rig.wire);
  driver.enable_defense(golden_defense());
  EXPECT_EQ(four_rounds_then_hash(driver, rig), 14365247467793679627ULL);
}

TEST(SnapshotGoldens, SfedDeterministicAtOneAndFourWorkers) {
  for (const std::size_t workers : {1u, 4u}) {
    Rig rig;
    serve::ServeConfig config;
    config.workers = workers;
    serve::ShardedServer server(rig.fleet.size(), config);
    fed::FederatedAveraging driver(rig.clients(), &rig.wire, &server);
    EXPECT_EQ(four_rounds_then_hash(driver, rig), 6397078083735942837ULL)
        << workers << " workers";
  }
}

TEST(SnapshotGoldens, SfedThroughputOneWorker) {
  Rig rig;
  serve::ServeConfig config;
  config.mode = serve::CommitMode::kThroughput;
  serve::ShardedServer server(rig.fleet.size(), config);
  fed::FederatedAveraging driver(rig.clients(), &rig.wire, &server);
  EXPECT_EQ(four_rounds_then_hash(driver, rig), 11620593748410365397ULL);
}

TEST(SnapshotGoldens, SfedWithDefenseAtOneAndFourWorkers) {
  // The sharded server screens with the in-process committer's stage, so
  // its DFNS section matches the FAVG+DFNS golden's byte for byte.
  std::vector<std::uint8_t> favg_defense;
  {
    Rig rig;
    fed::FederatedAveraging driver(rig.clients(), &rig.wire);
    driver.enable_defense(golden_defense());
    (void)four_rounds_then_hash(driver, rig);
    ckpt::Writer out;
    driver.defense()->save_state(out);
    favg_defense = out.take();
  }
  for (const std::size_t workers : {1u, 4u}) {
    Rig rig;
    serve::ServeConfig config;
    config.workers = workers;
    serve::ShardedServer server(rig.fleet.size(), config);
    fed::FederatedAveraging driver(rig.clients(), &rig.wire, &server);
    driver.enable_defense(golden_defense());
    EXPECT_EQ(four_rounds_then_hash(driver, rig), 10779638770095498567ULL)
        << workers << " workers";
    ckpt::Writer out;
    driver.defense()->save_state(out);
    EXPECT_EQ(out.data(), favg_defense) << workers << " workers";
  }
}

std::vector<std::uint8_t> read_golden(const std::string& name) {
  std::ifstream in(std::string(FEDPOWER_CKPT_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct LegacyGolden {
  const char* file;
  std::uint64_t hash;  ///< the SFED+SRVR constant the layout was pinned by
  serve::CommitMode mode;
  std::vector<std::size_t> workers;
};

TEST(SnapshotGoldens, LegacySrvrRestoresAndContinuesBitIdentically) {
  const LegacyGolden goldens[] = {
      {"sfed_srvr_deterministic.bin", 4758735230460686301ULL,
       serve::CommitMode::kDeterministic, {1, 4}},
      {"sfed_srvr_throughput.bin", 3275698971871877752ULL,
       serve::CommitMode::kThroughput, {1}},
  };
  for (const LegacyGolden& golden : goldens) {
    SCOPED_TRACE(golden.file);
    const std::vector<std::uint8_t> bytes = read_golden(golden.file);
    EXPECT_EQ(fnv1a(bytes), golden.hash);
    for (const std::size_t workers : golden.workers) {
      SCOPED_TRACE(testing::Message() << workers << " workers");
      serve::ServeConfig config;
      config.workers = workers;
      config.mode = golden.mode;
      // The uninterrupted run: six rounds on today's build.
      Rig straight_rig;
      serve::ShardedServer straight_server(straight_rig.fleet.size(), config);
      fed::FederatedAveraging straight(straight_rig.clients(),
                                       &straight_rig.wire, &straight_server);
      straight.set_sampling(Rig::sampling());
      straight.initialize(kInit);
      run_rounds(straight, 6);

      // The resumed run shares a rig whose first four rounds brought the
      // fault stream (not part of the driver snapshot) to where the
      // captured run left it.
      Rig rig;
      serve::ShardedServer first_server(rig.fleet.size(), config);
      fed::FederatedAveraging first(rig.clients(), &rig.wire, &first_server);
      first.set_sampling(Rig::sampling());
      first.initialize(kInit);
      run_rounds(first, 4);
      serve::ShardedServer server(rig.fleet.size(), config);
      fed::FederatedAveraging resumed(rig.clients(), &rig.wire, &server);
      resumed.set_sampling(Rig::sampling());
      resumed.initialize(kInit);
      ckpt::Reader in(bytes);
      resumed.restore_state(in);
      EXPECT_TRUE(in.exhausted());
      // The legacy bytes restore to the state today's build reaches itself.
      EXPECT_EQ(snapshot(resumed), snapshot(first));
      run_rounds(resumed, 2);
      EXPECT_EQ(resumed.rounds_completed(), straight.rounds_completed());
      EXPECT_EQ(snapshot(resumed), snapshot(straight));
    }
  }
}

}  // namespace
}  // namespace fedpower
