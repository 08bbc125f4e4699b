// Dropout semantics of the federation layers: rounds survive client
// failures, aggregate over the survivors, record the casualties, and fail
// only below quorum — without ever advancing state for a failed round.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "fed/fault_injection.hpp"
#include "fed/federation.hpp"

namespace fedpower::fed {
namespace {

class ScriptedClient final : public FederatedClient {
 public:
  explicit ScriptedClient(double delta) : delta_(delta) {}
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
    ++receives_;
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {
    ++rounds_;
    for (double& p : params_) p += delta_;
  }
  int receives() const noexcept { return receives_; }
  int rounds() const noexcept { return rounds_; }

 private:
  double delta_;
  std::vector<double> params_;
  int receives_ = 0;
  int rounds_ = 0;
};

/// Throws TransportError on exactly the scripted transfer indices
/// (1-based, counted across both directions); delivers otherwise.
class ScriptedFaultTransport final : public Transport {
 public:
  explicit ScriptedFaultTransport(std::set<std::size_t> fail_on)
      : fail_on_(std::move(fail_on)) {}

  std::vector<std::uint8_t> transfer(
      Direction direction, std::vector<std::uint8_t> payload) override {
    ++count_;
    if (fail_on_.count(count_) > 0)
      throw TransportError("scripted fault at transfer " +
                           std::to_string(count_));
    return inner_.transfer(direction, std::move(payload));
  }

  const TrafficStats& stats() const noexcept override {
    return inner_.stats();
  }

  std::size_t transfers_seen() const noexcept { return count_; }

 private:
  std::set<std::size_t> fail_on_;
  std::size_t count_ = 0;
  InProcessTransport inner_;
};

TEST(FaultTolerance, DownlinkFaultDropsClientAndSkipsItsTraining) {
  ScriptedClient a(+1.0);
  ScriptedClient b(+5.0);
  // Transfer order in a round: downlink a (1), downlink b (2),
  // uplink a (3), uplink b — client b's broadcast is lost.
  ScriptedFaultTransport transport({2});
  FederatedAveraging server({&a, &b}, &transport);
  server.initialize({0.0});
  const RoundResult result = server.run_round();
  EXPECT_EQ(result.dropped, (std::vector<std::size_t>{1}));
  EXPECT_EQ(result.effective_clients(), 1u);
  EXPECT_EQ(b.receives(), 0);
  EXPECT_EQ(b.rounds(), 0);  // unreachable clients must not train
  EXPECT_NEAR(server.global_model()[0], 1.0, 1e-6);  // a alone
  EXPECT_EQ(server.rounds_completed(), 1u);
}

TEST(FaultTolerance, UplinkFaultDropsClientFromAggregate) {
  ScriptedClient a(+1.0);
  ScriptedClient b(+5.0);
  // Both broadcasts land; b trains but its upload (transfer 4) is lost.
  ScriptedFaultTransport transport({4});
  FederatedAveraging server({&a, &b}, &transport);
  server.initialize({0.0});
  const RoundResult result = server.run_round();
  EXPECT_EQ(result.dropped, (std::vector<std::size_t>{1}));
  EXPECT_EQ(b.rounds(), 1);  // it did train; only the upload was lost
  EXPECT_NEAR(server.global_model()[0], 1.0, 1e-6);
}

TEST(FaultTolerance, CleanRoundsReportNoDropouts) {
  ScriptedClient a(+1.0);
  ScriptedClient b(-1.0);
  ScriptedFaultTransport transport({});
  FederatedAveraging server({&a, &b}, &transport);
  server.initialize({0.0});
  const RoundResult result = server.run_round();
  EXPECT_TRUE(result.dropped.empty());
  EXPECT_EQ(result.effective_clients(), 2u);
  EXPECT_EQ(result.transport_retries, 0u);
}

TEST(FaultTolerance, QuorumFailureThrowsAndLeavesStateUntouched) {
  ScriptedClient a(+1.0);
  ScriptedClient b(+1.0);
  // Round 1 clean (transfers 1-4); in round 2 both broadcasts fail
  // (transfers 5, 6), so zero survivors remain.
  ScriptedFaultTransport transport({5, 6});
  FederatedAveraging server({&a, &b}, &transport);
  server.set_quorum(1);
  server.initialize({0.0});
  server.run_round();
  EXPECT_EQ(server.rounds_completed(), 1u);
  const std::vector<double> before = server.global_model();
  try {
    server.run_round();
    FAIL() << "expected QuorumError";
  } catch (const QuorumError& error) {
    EXPECT_EQ(error.survivors(), 0u);
    EXPECT_EQ(error.required(), 1u);
  }
  // The failed round must not advance the counter or move the model —
  // the seed's bug advanced the counter before any transfer.
  EXPECT_EQ(server.rounds_completed(), 1u);
  EXPECT_EQ(server.global_model(), before);
  // And the next clean round proceeds normally.
  const RoundResult retry = server.run_round();
  EXPECT_EQ(retry.round, 2u);
  EXPECT_EQ(server.rounds_completed(), 2u);
}

TEST(FaultTolerance, ConfigurableQuorumRejectsThinRounds) {
  ScriptedClient a(+1.0);
  ScriptedClient b(+1.0);
  ScriptedClient c(+1.0);
  // Client c's broadcast (transfer 3) is lost: 2 of 3 survive.
  ScriptedFaultTransport transport({3});
  FederatedAveraging server({&a, &b, &c}, &transport);
  server.set_quorum(3);  // demand full participation
  server.initialize({0.0});
  EXPECT_THROW(server.run_round(), QuorumError);
  EXPECT_EQ(server.rounds_completed(), 0u);
}

TEST(FaultTolerance, PerClientTransportsIsolateFailures) {
  ScriptedClient a(+1.0);
  ScriptedClient b(+5.0);
  InProcessTransport healthy;
  FaultInjectionConfig dead;
  dead.drop_probability = 1.0;
  InProcessTransport dead_inner;
  FaultInjectingTransport faulty(&dead_inner, dead);
  FederatedAveraging server({&a, &b}, &healthy);
  server.set_client_transport(1, &faulty);
  server.initialize({0.0});
  const RoundResult result = server.run_round();
  EXPECT_EQ(result.dropped, (std::vector<std::size_t>{1}));
  EXPECT_NEAR(server.global_model()[0], 1.0, 1e-6);
  // Client a's traffic went over its own healthy link.
  EXPECT_EQ(healthy.stats().total_transfers(), 2u);
}

TEST(FaultTolerance, TruncatedPayloadIsDetectedAndDropped) {
  // A payload damaged in flight must not crash decode or poison the
  // aggregate: the codec rejects it and the client counts as dropped.
  ScriptedClient a(+1.0);
  ScriptedClient b(+5.0);
  InProcessTransport healthy;
  FaultInjectionConfig config;
  config.truncate_probability = 1.0;
  InProcessTransport inner;
  FaultInjectingTransport truncating(&inner, config);
  FederatedAveraging server({&a, &b}, &healthy);
  server.set_client_transport(1, &truncating);
  server.initialize({0.0, 0.0});
  const RoundResult result = server.run_round();
  EXPECT_EQ(result.dropped, (std::vector<std::size_t>{1}));
  EXPECT_NEAR(server.global_model()[0], 1.0, 1e-6);
}

/// Float32Codec that counts the payloads it decodes.
class CountingCodec final : public ModelCodec {
 public:
  std::vector<std::uint8_t> encode(
      std::span<const double> params) const override {
    return Float32Codec::instance().encode(params);
  }
  std::vector<double> decode(
      std::span<const std::uint8_t> payload) const override {
    ++decodes_;
    return Float32Codec::instance().decode(payload);
  }
  std::size_t payload_size(std::size_t param_count) const override {
    return Float32Codec::instance().payload_size(param_count);
  }
  std::string name() const override { return "counting-float32"; }
  std::size_t decodes() const noexcept { return decodes_; }

 private:
  mutable std::size_t decodes_ = 0;
};

/// Applies `damage` to every downlink payload; uplinks pass untouched.
class DownlinkDamage final : public Transport {
 public:
  explicit DownlinkDamage(void (*damage)(std::vector<std::uint8_t>&))
      : damage_(damage) {}
  std::vector<std::uint8_t> transfer(
      Direction direction, std::vector<std::uint8_t> payload) override {
    if (direction == Direction::kDownlink) damage_(payload);
    return inner_.transfer(direction, std::move(payload));
  }
  const TrafficStats& stats() const noexcept override {
    return inner_.stats();
  }

 private:
  void (*damage_)(std::vector<std::uint8_t>&);
  InProcessTransport inner_;
};

TEST(FaultTolerance, BroadcastIsDecodedOnceAndChangedBytesAgain) {
  // Clients 0 and 3 get the broadcast as sent; client 1's copy is
  // truncated in flight, client 2's has its first float rewritten. The
  // broadcast is decoded once for the unchanged copies, and each changed
  // copy is decoded on its own: the truncated one is rejected and its
  // client dropped, the rewritten one reaches its client as rewritten.
  ScriptedClient a(+1.0);
  ScriptedClient b(+1.0);
  ScriptedClient c(+1.0);
  ScriptedClient d(+1.0);
  InProcessTransport healthy;
  DownlinkDamage truncating(
      [](std::vector<std::uint8_t>& bytes) { bytes.pop_back(); });
  DownlinkDamage rewriting([](std::vector<std::uint8_t>& bytes) {
    const std::vector<std::uint8_t> two =
        Float32Codec::instance().encode(std::vector<double>{2.0});
    std::copy(two.end() - 4, two.end(), bytes.end() - 8);
  });
  CountingCodec codec;
  FederatedAveraging server({&a, &b, &c, &d}, &healthy,
                            AggregationMode::kUnweightedMean, &codec);
  server.set_client_transport(1, &truncating);
  server.set_client_transport(2, &rewriting);
  server.initialize({0.5, 0.25});
  const std::size_t decodes_before = codec.decodes();
  const RoundResult result = server.run_round();
  // One broadcast decode, two changed downlinks, three uploads.
  EXPECT_EQ(codec.decodes() - decodes_before, 1u + 2u + 3u);
  EXPECT_EQ(result.dropped, (std::vector<std::size_t>{1}));
  EXPECT_EQ(b.receives(), 0);
  EXPECT_EQ(b.rounds(), 0);
  EXPECT_EQ(a.receives(), 1);
  EXPECT_EQ(a.local_parameters(), (std::vector<double>{1.5, 1.25}));
  EXPECT_EQ(d.local_parameters(), (std::vector<double>{1.5, 1.25}));
  EXPECT_EQ(c.local_parameters(), (std::vector<double>{2.0 + 1.0, 1.25}));
}

TEST(FaultTolerance, DroppedSetIsDeterministicPerSeed) {
  // Same seed => identical dropped sets across independent runs; a
  // different seed produces a different schedule.
  const auto dropped_history = [](std::uint64_t seed) {
    ScriptedClient a(+1.0);
    ScriptedClient b(-1.0);
    ScriptedClient c(+2.0);
    InProcessTransport inner;
    FaultInjectionConfig config;
    config.drop_probability = 0.25;
    config.seed = seed;
    FaultInjectingTransport transport(&inner, config);
    FederatedAveraging server({&a, &b, &c}, &transport);
    server.initialize({0.0});
    std::vector<std::vector<std::size_t>> history;
    for (int round = 0; round < 20; ++round) {
      try {
        history.push_back(server.run_round().dropped);
      } catch (const QuorumError&) {
        history.push_back({99});  // sentinel: round aborted
      }
    }
    return history;
  };
  const auto first = dropped_history(7);
  EXPECT_EQ(first, dropped_history(7));
  EXPECT_NE(first, dropped_history(8));
}

}  // namespace
}  // namespace fedpower::fed
