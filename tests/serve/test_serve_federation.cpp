// The serve path's headline contract (DESIGN.md §12): FederatedAveraging
// committing through a ShardedServer in deterministic commit mode is
// bit-identical to inline aggregation at any worker count — same globals,
// same RoundResult verdicts, same QuorumError pattern — including under
// client sampling, robust aggregation, seeded transport faults and the
// defense pipeline. Plus the SFED+SRV2 checkpoint resume equivalence and
// its model-size check.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "ckpt/errors.hpp"
#include "fed/byzantine.hpp"
#include "fed/fault_injection.hpp"
#include "fed/federation.hpp"

namespace fedpower::serve {
namespace {

/// Deterministic client: adds its fixed delta each local round. Two
/// fleets built from the same deltas behave identically, which is what
/// lets the sync and serve paths run side by side.
class ScriptedClient final : public fed::FederatedClient {
 public:
  explicit ScriptedClient(double delta, std::size_t samples = 1)
      : delta_(delta), samples_(samples) {}

  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {
    for (double& p : params_) p += delta_;
  }
  std::size_t local_sample_count() const override { return samples_; }

 private:
  double delta_;
  std::size_t samples_;
  std::vector<double> params_;
};

using Fleet = std::vector<std::unique_ptr<ScriptedClient>>;

Fleet make_fleet(const std::vector<double>& deltas,
                 const std::vector<std::size_t>& samples = {}) {
  Fleet fleet;
  for (std::size_t i = 0; i < deltas.size(); ++i)
    fleet.push_back(std::make_unique<ScriptedClient>(
        deltas[i], samples.empty() ? 1 : samples[i]));
  return fleet;
}

std::vector<fed::FederatedClient*> ptrs(const Fleet& fleet) {
  std::vector<fed::FederatedClient*> out;
  for (const auto& client : fleet) out.push_back(client.get());
  return out;
}

void expect_round_parity(const fed::RoundResult& sync_round,
                         const fed::RoundResult& serve_round) {
  EXPECT_EQ(sync_round.participants, serve_round.participants);
  EXPECT_EQ(sync_round.dropped, serve_round.dropped);
  EXPECT_EQ(sync_round.rejected, serve_round.rejected);
  EXPECT_EQ(sync_round.effective_clients(),
            serve_round.effective_clients());
}

const std::vector<double> kDeltas{0.5, -1.0, 2.0, 0.25, -0.75, 1.5};
const std::vector<double> kInit{0.0, 10.0, -5.0};

TEST(ServeFederation, BitIdenticalToSyncAtOneTwoFourWorkers) {
  for (const std::size_t workers : {1u, 2u, 4u}) {
    Fleet sync_fleet = make_fleet(kDeltas);
    Fleet serve_fleet = make_fleet(kDeltas);
    fed::InProcessTransport sync_transport;
    fed::InProcessTransport serve_transport;
    fed::FederatedAveraging sync_server(ptrs(sync_fleet), &sync_transport);
    ServeConfig config;
    config.workers = workers;
    ShardedServer server(serve_fleet.size(), config);
    fed::FederatedAveraging serve(ptrs(serve_fleet), &serve_transport,
                                  &server);
    sync_server.initialize(kInit);
    serve.initialize(kInit);
    for (int round = 0; round < 5; ++round) {
      const fed::RoundResult s = sync_server.run_round();
      const fed::RoundResult v = serve.run_round();
      expect_round_parity(s, v);
      // Exact, not approximate: the commit runs the same aggregation
      // code over the same survivor order.
      EXPECT_EQ(sync_server.global_model(), serve.global_model())
          << "diverged at round " << round << " with " << workers
          << " workers";
    }
  }
}

TEST(ServeFederation, BitIdenticalUnderClientSampling) {
  fed::SamplingConfig sampling;
  sampling.fraction = 0.5;
  sampling.min_clients = 2;
  sampling.seed = 7;
  Fleet sync_fleet = make_fleet(kDeltas);
  Fleet serve_fleet = make_fleet(kDeltas);
  fed::InProcessTransport sync_transport;
  fed::InProcessTransport serve_transport;
  fed::FederatedAveraging sync_server(ptrs(sync_fleet), &sync_transport);
  ServeConfig config;
  config.workers = 2;
  ShardedServer server(serve_fleet.size(), config);
  fed::FederatedAveraging serve(ptrs(serve_fleet), &serve_transport, &server);
  sync_server.set_sampling(sampling);
  serve.set_sampling(sampling);
  sync_server.initialize(kInit);
  serve.initialize(kInit);
  for (int round = 0; round < 8; ++round) {
    const fed::RoundResult s = sync_server.run_round();
    const fed::RoundResult v = serve.run_round();
    // Same RNG stream: the drawn participants must match exactly.
    EXPECT_EQ(s.participants, v.participants);
    EXPECT_EQ(sync_server.global_model(), serve.global_model());
  }
  EXPECT_EQ(serve.rounds_completed(), 8u);
}

TEST(ServeFederation, BitIdenticalWithRobustAggregation) {
  const fed::AggregationMode modes[] = {
      fed::AggregationMode::kCoordinateMedian,
      fed::AggregationMode::kTrimmedMean,
      fed::AggregationMode::kSampleWeighted,
  };
  const std::vector<std::size_t> samples{4, 1, 2, 7, 1, 3};
  for (const fed::AggregationMode mode : modes) {
    Fleet sync_fleet = make_fleet(kDeltas, samples);
    Fleet serve_fleet = make_fleet(kDeltas, samples);
    fed::InProcessTransport sync_transport;
    fed::InProcessTransport serve_transport;
    fed::FederatedAveraging sync_server(ptrs(sync_fleet), &sync_transport,
                                        mode);
    ServeConfig config;
    config.workers = 4;
    config.aggregation = mode;
    ShardedServer server(serve_fleet.size(), config);
    fed::FederatedAveraging serve(ptrs(serve_fleet), &serve_transport,
                                  &server);
    sync_server.initialize(kInit);
    serve.initialize(kInit);
    for (int round = 0; round < 4; ++round) {
      sync_server.run_round();
      serve.run_round();
      EXPECT_EQ(sync_server.global_model(), serve.global_model());
    }
  }
}

TEST(ServeFederation, BitIdenticalUnderSeededTransportFaults) {
  // Both paths issue the same transfer sequence call-for-call, so two
  // fault injectors with the same seed fire on the same transfers — the
  // dropout pattern, verdicts and committed models all line up.
  fed::FaultInjectionConfig faults;
  faults.drop_probability = 0.2;
  faults.truncate_probability = 0.15;
  faults.seed = 3;
  Fleet sync_fleet = make_fleet(kDeltas);
  Fleet serve_fleet = make_fleet(kDeltas);
  fed::InProcessTransport sync_inner;
  fed::InProcessTransport serve_inner;
  fed::FaultInjectingTransport sync_faulty(&sync_inner, faults);
  fed::FaultInjectingTransport serve_faulty(&serve_inner, faults);
  fed::FederatedAveraging sync_server(ptrs(sync_fleet), &sync_faulty);
  ServeConfig config;
  config.workers = 2;
  ShardedServer server(serve_fleet.size(), config);
  fed::FederatedAveraging serve(ptrs(serve_fleet), &serve_faulty, &server);
  sync_server.initialize(kInit);
  serve.initialize(kInit);
  std::size_t committed = 0;
  std::size_t aborted = 0;
  for (int round = 0; round < 10; ++round) {
    std::optional<fed::RoundResult> s;
    std::optional<fed::RoundResult> v;
    try {
      s = sync_server.run_round();
    } catch (const fed::QuorumError&) {}
    try {
      v = serve.run_round();
    } catch (const fed::QuorumError&) {}
    ASSERT_EQ(s.has_value(), v.has_value())
        << "quorum divergence at round " << round;
    if (s) {
      expect_round_parity(*s, *v);
      ++committed;
    } else {
      ++aborted;
    }
    EXPECT_EQ(sync_server.global_model(), serve.global_model());
  }
  // The fault rates above make both outcomes plausible; what matters is
  // that the two paths agreed on every single round.
  EXPECT_EQ(committed + aborted, 10u);
  EXPECT_GT(committed, 0u);
}

TEST(ServeFederation, QuorumErrorLeavesRoundCounterAndGlobalUntouched) {
  Fleet fleet = make_fleet({1.0, 1.0});
  fed::InProcessTransport inner;
  fed::FaultInjectionConfig faults;
  faults.drop_probability = 1.0;  // every transfer dies
  fed::FaultInjectingTransport faulty(&inner, faults);
  ShardedServer server(fleet.size());
  fed::FederatedAveraging serve(ptrs(fleet), &faulty, &server);
  serve.set_quorum(2);
  serve.initialize({4.0});
  EXPECT_THROW(serve.run_round(), fed::QuorumError);
  EXPECT_EQ(serve.rounds_completed(), 0u);
  EXPECT_DOUBLE_EQ(serve.global_model()[0], 4.0);
}

TEST(ServeFederation, CheckpointResumeMatchesUninterruptedRun) {
  fed::SamplingConfig sampling;
  sampling.fraction = 0.5;
  sampling.min_clients = 2;
  sampling.seed = 11;
  /// One serve-path federation: the driver and the committer it owns.
  struct Rig {
    ShardedServer server;
    fed::FederatedAveraging serve;
    Rig(Fleet& fleet, fed::Transport* transport, const ServeConfig& config)
        : server(fleet.size(), config),
          serve(ptrs(fleet), transport, &server) {}
  };
  const auto build = [&](Fleet& fleet, fed::Transport* transport) {
    ServeConfig config;
    config.workers = 2;
    auto rig = std::make_unique<Rig>(fleet, transport, config);
    rig->serve.set_sampling(sampling);
    rig->serve.initialize(kInit);
    return rig;
  };
  // Reference: 6 uninterrupted rounds.
  Fleet fleet_a = make_fleet(kDeltas);
  fed::InProcessTransport transport_a;
  auto reference = build(fleet_a, &transport_a);
  reference->serve.run(6);
  // Interrupted: 3 rounds, snapshot, restore into a fresh federation
  // (fresh clients too — their state is rebuilt by the next broadcast),
  // then 3 more rounds.
  Fleet fleet_b = make_fleet(kDeltas);
  fed::InProcessTransport transport_b;
  auto first_half = build(fleet_b, &transport_b);
  first_half->serve.run(3);
  ckpt::Writer snapshot;
  first_half->serve.save_state(snapshot);
  Fleet fleet_c = make_fleet(kDeltas);
  fed::InProcessTransport transport_c;
  auto resumed = build(fleet_c, &transport_c);
  ckpt::Reader in(snapshot.data());
  resumed->serve.restore_state(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(resumed->serve.rounds_completed(), 3u);
  resumed->serve.run(3);
  EXPECT_EQ(resumed->serve.rounds_completed(), 6u);
  // Bit-identical to the uninterrupted run: global model AND the
  // participation stream (a drifted stream would pick other clients).
  EXPECT_EQ(resumed->serve.global_model(), reference->serve.global_model());
  ckpt::Writer resumed_bytes;
  ckpt::Writer reference_bytes;
  resumed->serve.save_state(resumed_bytes);
  reference->serve.save_state(reference_bytes);
  EXPECT_EQ(resumed_bytes.data(), reference_bytes.data());
}

/// Client 4 sign-flips its uploads from its third round on, client 5
/// inflates them from its fourth: the defense's cosine and norm screens
/// both have work.
struct DefendedFleet {
  Fleet honest = make_fleet(kDeltas);
  fed::ByzantineClient flipper{honest[4].get(),
                               {fed::UploadAttack::kSignFlip, 3.0, 5, 2}};
  fed::ByzantineClient inflater{honest[5].get(),
                                {fed::UploadAttack::kScale, 40.0, 5, 3}};

  std::vector<fed::FederatedClient*> clients() {
    std::vector<fed::FederatedClient*> out = ptrs(honest);
    out[4] = &flipper;
    out[5] = &inflater;
    return out;
  }
};

std::vector<std::uint8_t> defense_bytes(const fed::FederatedAveraging& fed) {
  ckpt::Writer out;
  fed.defense()->save_state(out);
  return out.take();
}

TEST(ServeFederation, DefendedRoundsAreBitIdenticalToSync) {
  // The shards screen with the in-process committer's own
  // DefensePipeline::screen, and the commit admits the observations in
  // client order: verdict lists, model bits and defense state all match.
  fed::DefenseConfig defense;
  defense.enabled = true;
  defense.warmup_rounds = 1;
  defense.norm_min_samples = 2;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    DefendedFleet sync_fleet;
    DefendedFleet serve_fleet;
    fed::InProcessTransport sync_transport;
    fed::InProcessTransport serve_transport;
    fed::FederatedAveraging sync_server(sync_fleet.clients(),
                                        &sync_transport);
    ServeConfig config;
    config.workers = workers;
    ShardedServer server(kDeltas.size(), config);
    fed::FederatedAveraging serve(serve_fleet.clients(), &serve_transport,
                                  &server);
    std::size_t screened = 0;
    for (fed::FederatedAveraging* fed : {&sync_server, &serve}) {
      fed->enable_defense(defense);
      fed->initialize(kInit);
    }
    for (int round = 0; round < 8; ++round) {
      const fed::RoundResult s = sync_server.run_round();
      const fed::RoundResult v = serve.run_round();
      expect_round_parity(s, v);
      EXPECT_EQ(s.screened, v.screened) << "round " << round;
      EXPECT_EQ(s.quarantined, v.quarantined) << "round " << round;
      EXPECT_EQ(s.readmitted, v.readmitted) << "round " << round;
      EXPECT_EQ(s.clipped, v.clipped) << "round " << round;
      EXPECT_EQ(s.uplink_bytes, v.uplink_bytes) << "round " << round;
      EXPECT_EQ(sync_server.global_model(), serve.global_model())
          << "round " << round << ", " << workers << " workers";
      screened += v.screened.size();
    }
    EXPECT_GT(screened, 0u);
    EXPECT_TRUE(serve.defense()->quarantined(4));
    EXPECT_EQ(defense_bytes(serve), defense_bytes(sync_server));
  }
}

TEST(ServeFederation, DefenseCannotBeArmedInThroughputMode) {
  // Throughput mode merges into the global model while the shards would
  // screen against it, so arming the defense there is a caller bug.
  fed::DefenseConfig defense;
  defense.enabled = true;
  EXPECT_DEATH(
      {
        Fleet fleet = make_fleet(kDeltas);
        fed::InProcessTransport transport;
        ServeConfig config;
        config.mode = CommitMode::kThroughput;
        ShardedServer server(fleet.size(), config);
        fed::FederatedAveraging serve(ptrs(fleet), &transport, &server);
        serve.enable_defense(defense);
      },
      "precondition");
}

TEST(ServeFederation, SnapshotOfTheWrongModelSizeIsRejected) {
  // A 3-parameter serve snapshot restored into a fleet whose clients hold
  // 4 parameters must fail as a state mismatch at restore time, not abort
  // the process at the next broadcast.
  Fleet small_fleet = make_fleet(kDeltas);
  fed::InProcessTransport small_transport;
  ShardedServer small_server(small_fleet.size());
  fed::FederatedAveraging small(ptrs(small_fleet), &small_transport,
                                &small_server);
  small.initialize(kInit);
  small.run(2);
  ckpt::Writer snapshot;
  small.save_state(snapshot);

  Fleet fleet = make_fleet(kDeltas);
  fed::InProcessTransport transport;
  ShardedServer server(fleet.size());
  fed::FederatedAveraging serve(ptrs(fleet), &transport, &server);
  serve.initialize({1.0, 2.0, 3.0, 4.0});
  serve.run(1);  // every client now holds 4 parameters
  ckpt::Reader in(snapshot.data());
  EXPECT_THROW(serve.restore_state(in), ckpt::StateMismatchError);
}

TEST(ServeFederation, ThroughputModeMergesEveryAcceptedUpload) {
  Fleet fleet = make_fleet(kDeltas);
  fed::InProcessTransport transport;
  ServeConfig config;
  config.mode = CommitMode::kThroughput;
  config.workers = 2;
  config.mixing_rate = 0.5;
  ShardedServer server(fleet.size(), config);
  fed::FederatedAveraging serve(ptrs(fleet), &transport, &server);
  serve.initialize(kInit);
  serve.run(3);
  EXPECT_EQ(serve.rounds_completed(), 3u);
  EXPECT_EQ(server.stats().merges, 18u);  // 6 clients x 3 rounds
  EXPECT_EQ(server.version(), 18u);       // one bump per merge
}

}  // namespace
}  // namespace fedpower::serve
