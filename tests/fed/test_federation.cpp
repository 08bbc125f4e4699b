#include "fed/federation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "nn/serialize.hpp"

namespace fedpower::fed {
namespace {

/// Scripted client: adds a fixed delta to every parameter each round.
class ScriptedClient final : public FederatedClient {
 public:
  ScriptedClient(double delta, std::size_t samples = 1)
      : delta_(delta), samples_(samples) {}

  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
    ++receives_;
  }

  std::vector<double> local_parameters() const override { return params_; }

  void run_local_round() override {
    ++rounds_;
    for (double& p : params_) p += delta_;
  }

  std::size_t local_sample_count() const override { return samples_; }

  int receives() const noexcept { return receives_; }
  int rounds() const noexcept { return rounds_; }
  const std::vector<double>& params() const noexcept { return params_; }

 private:
  double delta_;
  std::size_t samples_;
  std::vector<double> params_;
  int receives_ = 0;
  int rounds_ = 0;
};

TEST(Federation, BroadcastsBeforeLocalTraining) {
  ScriptedClient a(0.0);
  ScriptedClient b(0.0);
  InProcessTransport transport;
  FederatedAveraging server({&a, &b}, &transport);
  server.initialize({1.0, 2.0});
  server.run_round();
  EXPECT_EQ(a.receives(), 1);
  EXPECT_EQ(b.receives(), 1);
  EXPECT_EQ(a.rounds(), 1);
  EXPECT_EQ(a.params(), (std::vector<double>{1.0, 2.0}));
}

TEST(Federation, AveragesClientDeltas) {
  ScriptedClient a(+1.0);
  ScriptedClient b(-1.0);
  InProcessTransport transport;
  FederatedAveraging server({&a, &b}, &transport);
  server.initialize({0.0});
  server.run_round();
  // (0+1 + 0-1)/2 = 0.
  EXPECT_NEAR(server.global_model()[0], 0.0, 1e-6);
}

TEST(Federation, AsymmetricDeltasAverage) {
  ScriptedClient a(+0.5);
  ScriptedClient b(+1.5);
  InProcessTransport transport;
  FederatedAveraging server({&a, &b}, &transport);
  server.initialize({0.0});
  server.run_round();
  EXPECT_NEAR(server.global_model()[0], 1.0, 1e-6);
  server.run_round();
  EXPECT_NEAR(server.global_model()[0], 2.0, 1e-5);
}

TEST(Federation, RunsRequestedRounds) {
  ScriptedClient a(1.0);
  InProcessTransport transport;
  FederatedAveraging server({&a}, &transport);
  server.initialize({0.0});
  server.run(5);
  EXPECT_EQ(server.rounds_completed(), 5u);
  EXPECT_EQ(a.rounds(), 5);
  EXPECT_NEAR(server.global_model()[0], 5.0, 1e-5);
}

TEST(Federation, TrafficMatchesModelSize) {
  ScriptedClient a(0.0);
  ScriptedClient b(0.0);
  InProcessTransport transport;
  FederatedAveraging server({&a, &b}, &transport);
  server.initialize(std::vector<double>(719, 0.1));
  const RoundResult result = server.run_round();
  const std::size_t payload = nn::payload_size(719);
  EXPECT_EQ(result.downlink_bytes, 2 * payload);
  EXPECT_EQ(result.uplink_bytes, 2 * payload);
  EXPECT_EQ(transport.stats().uplink_transfers, 2u);
  EXPECT_EQ(transport.stats().downlink_transfers, 2u);
  EXPECT_NEAR(transport.stats().mean_transfer_bytes(), 2888.0, 1.0);
}

TEST(Federation, RoundNumbersIncrement) {
  ScriptedClient a(0.0);
  InProcessTransport transport;
  FederatedAveraging server({&a}, &transport);
  server.initialize({1.0});
  EXPECT_EQ(server.run_round().round, 1u);
  EXPECT_EQ(server.run_round().round, 2u);
}

TEST(Federation, SampleWeightedAggregation) {
  ScriptedClient heavy(+1.0, 3);
  ScriptedClient light(-1.0, 1);
  InProcessTransport transport;
  FederatedAveraging server({&heavy, &light}, &transport,
                            AggregationMode::kSampleWeighted);
  server.initialize({0.0});
  server.run_round();
  // (3*1 + 1*(-1)) / 4 = 0.5.
  EXPECT_NEAR(server.global_model()[0], 0.5, 1e-6);
}

TEST(Federation, Float32WireQuantizesParameters) {
  ScriptedClient a(0.0);
  InProcessTransport transport;
  FederatedAveraging server({&a}, &transport);
  const double fine_value = 0.1234567890123456;
  server.initialize({fine_value});
  server.run_round();
  // The round-tripped value is float32-rounded, not the original double.
  EXPECT_NE(server.global_model()[0], fine_value);
  EXPECT_NEAR(server.global_model()[0], fine_value, 1e-7);
}

/// Client whose local training diverges to non-finite parameters.
class PoisonClient final : public FederatedClient {
 public:
  explicit PoisonClient(double poison) : poison_(poison) {}
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {
    if (!params_.empty()) params_[0] = poison_;
  }

 private:
  double poison_;
  std::vector<double> params_;
};

TEST(Federation, NonFiniteUploadIsRejectedNotAveraged) {
  ScriptedClient good(+2.0);
  PoisonClient bad(std::numeric_limits<double>::quiet_NaN());
  InProcessTransport transport;
  FederatedAveraging server({&good, &bad}, &transport);
  server.initialize({1.0, 1.0});
  const RoundResult result = server.run_round();
  EXPECT_EQ(result.rejected, (std::vector<std::size_t>{1}));
  EXPECT_TRUE(result.dropped.empty());
  EXPECT_EQ(result.effective_clients(), 1u);
  // The aggregate is the good client alone — no NaN contamination.
  EXPECT_EQ(server.global_model(), (std::vector<double>{3.0, 3.0}));
}

TEST(Federation, InfiniteUploadIsRejectedToo) {
  ScriptedClient good(0.5);
  PoisonClient bad(std::numeric_limits<double>::infinity());
  InProcessTransport transport;
  FederatedAveraging server({&good, &bad}, &transport);
  server.initialize({0.0});
  const RoundResult result = server.run_round();
  EXPECT_EQ(result.rejected, (std::vector<std::size_t>{1}));
  EXPECT_TRUE(std::isfinite(server.global_model()[0]));
}

TEST(Federation, RejectionCountsAgainstQuorum) {
  PoisonClient bad(std::numeric_limits<double>::quiet_NaN());
  ScriptedClient good(1.0);
  InProcessTransport transport;
  FederatedAveraging server({&bad, &good}, &transport);
  server.initialize({0.0});
  server.set_quorum(2);
  EXPECT_THROW(server.run_round(), QuorumError);
  // Quorum failure leaves the round counter and model untouched.
  EXPECT_EQ(server.rounds_completed(), 0u);
  EXPECT_EQ(server.global_model(), (std::vector<double>{0.0}));
}

TEST(Federation, ClientCount) {
  ScriptedClient a(0.0);
  ScriptedClient b(0.0);
  ScriptedClient c(0.0);
  InProcessTransport transport;
  FederatedAveraging server({&a, &b, &c}, &transport);
  EXPECT_EQ(server.client_count(), 3u);
}

TEST(FederationDeathTest, RequiresInitialization) {
  ScriptedClient a(0.0);
  InProcessTransport transport;
  FederatedAveraging server({&a}, &transport);
  EXPECT_DEATH(server.run_round(), "precondition");
}

TEST(FederationDeathTest, RejectsEmptyClientList) {
  InProcessTransport transport;
  EXPECT_DEATH(FederatedAveraging({}, &transport), "precondition");
}

TEST(FederationDeathTest, RejectsNullTransport) {
  ScriptedClient a(0.0);
  EXPECT_DEATH(FederatedAveraging({&a}, nullptr), "precondition");
}

}  // namespace
}  // namespace fedpower::fed
