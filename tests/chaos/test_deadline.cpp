// Round-deadline straggler demotion (DESIGN.md §13): a client whose
// downlink + uplink transport latency blows the per-round budget is
// demoted to a dropout before its upload is decoded — excluded from the
// aggregate, counted against the quorum, invisible to the defense
// pipeline — and the serve pipeline demotes the exact same clients at
// every worker count.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fed/federation.hpp"
#include "fed/transport.hpp"
#include "serve/server.hpp"

namespace fedpower::fed {
namespace {

/// Honest client: installs the broadcast, adds `delta` per local round.
class ScriptedClient final : public FederatedClient {
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

/// Delivers every payload intact but bills a configurable number of
/// simulated seconds per transfer — the knob the deadline reads.
class MeteredTransport final : public Transport {
 public:
  explicit MeteredTransport(double per_transfer_s)
      : per_transfer_s_(per_transfer_s) {}

  void set_per_transfer_latency(double seconds) { per_transfer_s_ = seconds; }

  std::vector<std::uint8_t> transfer(
      Direction direction, std::vector<std::uint8_t> payload) override {
    cumulative_s_ += per_transfer_s_;
    return inner_.transfer(direction, std::move(payload));
  }
  const TrafficStats& stats() const noexcept override {
    return inner_.stats();
  }
  double cumulative_latency_s() const noexcept override {
    return inner_.cumulative_latency_s() + cumulative_s_;
  }

 private:
  InProcessTransport inner_;
  double per_transfer_s_;
  double cumulative_s_ = 0.0;
};

const std::vector<double> kInit{0.0, 1.0, -1.0};

TEST(RoundDeadline, SlowClientIsDemotedNotAggregated) {
  ScriptedClient fast_a(0.5);
  ScriptedClient slow(100.0);  // its delta would dominate the mean
  ScriptedClient fast_b(0.5);
  InProcessTransport wire;
  MeteredTransport slow_link(/*per_transfer_s=*/0.04);  // 0.08 s per round
  FederatedAveraging server({&fast_a, &slow, &fast_b}, &wire);
  server.set_client_transport(1, &slow_link);
  server.set_round_deadline(0.05);
  server.initialize(kInit);

  const RoundResult result = server.run_round();
  EXPECT_EQ(result.stragglers, (std::vector<std::size_t>{1}));
  // A straggler is a dropout: it appears in both lists and in neither
  // aggregate nor effective count.
  EXPECT_EQ(result.dropped, (std::vector<std::size_t>{1}));
  EXPECT_EQ(result.effective_clients(), 2u);
  // Only the two fast clients' +0.5 moved the model.
  EXPECT_DOUBLE_EQ(server.global_model()[0], 0.5);
  EXPECT_DOUBLE_EQ(server.global_model()[1], 1.5);
}

TEST(RoundDeadline, ZeroDeadlineDisablesDemotion) {
  ScriptedClient a(0.5);
  ScriptedClient b(0.5);
  InProcessTransport wire;
  MeteredTransport glacial(/*per_transfer_s=*/1000.0);
  FederatedAveraging server({&a, &b}, &wire);
  server.set_client_transport(1, &glacial);
  server.initialize(kInit);  // deadline never set: latency is unmetered
  const RoundResult result = server.run_round();
  EXPECT_TRUE(result.stragglers.empty());
  EXPECT_TRUE(result.dropped.empty());
  EXPECT_EQ(result.effective_clients(), 2u);
}

TEST(RoundDeadline, DemotionReadsPerRoundLatencyNotLifetimeTotals) {
  // The budget must compare this round's latency delta, not the link's
  // cumulative account — a client that was slow once is not slow forever.
  ScriptedClient a(0.5);
  ScriptedClient b(0.5);
  InProcessTransport wire;
  MeteredTransport link(/*per_transfer_s=*/0.04);
  FederatedAveraging server({&a, &b}, &wire);
  server.set_client_transport(1, &link);
  server.set_round_deadline(0.05);
  server.initialize(kInit);
  EXPECT_EQ(server.run_round().stragglers, (std::vector<std::size_t>{1}));
  // The link heals; the cumulative account still reads 0.08+ s.
  link.set_per_transfer_latency(0.001);
  const RoundResult healed = server.run_round();
  EXPECT_TRUE(healed.stragglers.empty());
  EXPECT_EQ(healed.effective_clients(), 2u);
}

TEST(RoundDeadline, StragglerLeavesDefenseReputationUntouched) {
  // An honest-but-slow client must not bleed reputation: its upload is
  // discarded before screening, so the defense records no observation —
  // unlike a NaN or screened upload, which costs fail_penalty.
  ScriptedClient fast_a(0.01);
  ScriptedClient slow(0.01);
  ScriptedClient fast_b(0.01);
  InProcessTransport wire;
  MeteredTransport slow_link(/*per_transfer_s=*/0.04);
  FederatedAveraging server({&fast_a, &slow, &fast_b}, &wire);
  server.set_client_transport(1, &slow_link);
  server.set_round_deadline(0.05);
  DefenseConfig defense;
  defense.enabled = true;
  defense.initial_reputation = 0.8;  // headroom so pass credit is visible
  server.enable_defense(defense);
  server.initialize(kInit);

  for (int round = 0; round < 4; ++round) {
    const RoundResult result = server.run_round();
    EXPECT_EQ(result.stragglers, (std::vector<std::size_t>{1}));
  }
  ASSERT_NE(server.defense(), nullptr);
  // Punctual clients earned 4 rounds of pass credit; the straggler's
  // reputation never moved in either direction.
  EXPECT_GT(server.defense()->reputation(0), 0.95);
  EXPECT_DOUBLE_EQ(server.defense()->reputation(1), 0.8);
  EXPECT_GT(server.defense()->reputation(2), 0.95);
  EXPECT_FALSE(server.defense()->quarantined(1));
}

TEST(RoundDeadline, StragglersCountAgainstTheQuorum) {
  ScriptedClient a(0.5);
  ScriptedClient b(0.5);
  InProcessTransport wire;
  MeteredTransport slow_a(0.04);
  MeteredTransport slow_b(0.04);
  FederatedAveraging server({&a, &b}, &wire);
  server.set_client_transport(0, &slow_a);
  server.set_client_transport(1, &slow_b);
  server.set_round_deadline(0.05);
  server.set_quorum(2);
  server.initialize(kInit);
  // Both participants blow the budget: zero survivors, round aborts, and
  // the abort leaves the round counter and model untouched.
  try {
    server.run_round();
    FAIL() << "expected QuorumError";
  } catch (const QuorumError& error) {
    EXPECT_EQ(error.survivors(), 0u);
  }
  EXPECT_EQ(server.rounds_completed(), 0u);
  EXPECT_EQ(server.global_model(), kInit);
}

// --- serve-path parity ---------------------------------------------------

TEST(RoundDeadline, ServePipelineDemotesTheSameClientsAtEveryWorkerCount) {
  const std::vector<double> deltas{0.5, 100.0, -0.25, 0.5};
  for (const std::size_t workers : {1u, 2u, 4u}) {
    std::vector<ScriptedClient> sync_fleet;
    std::vector<ScriptedClient> serve_fleet;
    sync_fleet.reserve(deltas.size());
    serve_fleet.reserve(deltas.size());
    for (const double d : deltas) {
      sync_fleet.emplace_back(d);
      serve_fleet.emplace_back(d);
    }
    InProcessTransport sync_wire;
    InProcessTransport serve_wire;
    MeteredTransport sync_slow(0.04);
    MeteredTransport serve_slow(0.04);
    FederatedAveraging sync_server(
        {&sync_fleet[0], &sync_fleet[1], &sync_fleet[2], &sync_fleet[3]},
        &sync_wire);
    serve::ServeConfig config;
    config.workers = workers;
    serve::ShardedServer server(serve_fleet.size(), config);
    FederatedAveraging serve(
        {&serve_fleet[0], &serve_fleet[1], &serve_fleet[2], &serve_fleet[3]},
        &serve_wire, &server);
    sync_server.set_client_transport(1, &sync_slow);
    serve.set_client_transport(1, &serve_slow);
    sync_server.set_round_deadline(0.05);
    serve.set_round_deadline(0.05);
    sync_server.initialize(kInit);
    serve.initialize(kInit);
    for (int round = 0; round < 5; ++round) {
      const RoundResult s = sync_server.run_round();
      const RoundResult v = serve.run_round();
      EXPECT_EQ(s.stragglers, v.stragglers);
      EXPECT_EQ(s.dropped, v.dropped);
      EXPECT_EQ(v.stragglers, (std::vector<std::size_t>{1}));
      EXPECT_EQ(sync_server.global_model(), serve.global_model())
          << "diverged at round " << round << " with " << workers
          << " workers";
    }
  }
}

}  // namespace
}  // namespace fedpower::fed
