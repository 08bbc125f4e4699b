#include <gtest/gtest.h>

#include <set>

#include "fed/federation.hpp"

namespace fedpower::fed {
namespace {

class CountingClient final : public FederatedClient {
 public:
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
    ++receives_;
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override { ++rounds_; }

  int receives() const noexcept { return receives_; }
  int rounds() const noexcept { return rounds_; }

 private:
  std::vector<double> params_ = {0.0};
  int receives_ = 0;
  int rounds_ = 0;
};

TEST(Participation, FullParticipationIsDefault) {
  CountingClient a;
  CountingClient b;
  CountingClient c;
  InProcessTransport transport;
  FederatedAveraging server({&a, &b, &c}, &transport);
  server.initialize({1.0});
  const RoundResult result = server.run_round();
  EXPECT_EQ(result.participants, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(a.rounds(), 1);
  EXPECT_EQ(b.rounds(), 1);
  EXPECT_EQ(c.rounds(), 1);
}

TEST(Participation, HalfFractionSelectsCeilHalf) {
  CountingClient clients[4];
  InProcessTransport transport;
  FederatedAveraging server(
      {&clients[0], &clients[1], &clients[2], &clients[3]}, &transport);
  server.initialize({1.0});
  server.set_sampling({.fraction = 0.5, .seed = 7});
  const RoundResult result = server.run_round();
  EXPECT_EQ(result.participants.size(), 2u);
}

TEST(Participation, AtLeastOneClientAlwaysSelected) {
  CountingClient a;
  CountingClient b;
  InProcessTransport transport;
  FederatedAveraging server({&a, &b}, &transport);
  server.initialize({1.0});
  server.set_sampling({.fraction = 0.01, .seed = 3});
  const RoundResult result = server.run_round();
  EXPECT_EQ(result.participants.size(), 1u);
}

TEST(Participation, NonParticipantsAreUntouched) {
  CountingClient a;
  CountingClient b;
  CountingClient c;
  CountingClient d;
  InProcessTransport transport;
  FederatedAveraging server({&a, &b, &c, &d}, &transport);
  server.initialize({1.0});
  server.set_sampling({.fraction = 0.5, .seed = 11});
  server.run(6);
  const CountingClient* all[] = {&a, &b, &c, &d};
  int total_rounds = 0;
  for (const auto* client : all) {
    EXPECT_EQ(client->rounds(), client->receives());
    total_rounds += client->rounds();
  }
  // 6 rounds x 2 participants each.
  EXPECT_EQ(total_rounds, 12);
}

TEST(Participation, AllClientsEventuallyParticipate) {
  CountingClient clients[4];
  InProcessTransport transport;
  FederatedAveraging server(
      {&clients[0], &clients[1], &clients[2], &clients[3]}, &transport);
  server.initialize({1.0});
  server.set_sampling({.fraction = 0.25, .seed = 13});
  std::set<std::size_t> seen;
  for (int r = 0; r < 40; ++r)
    for (const std::size_t i : server.run_round().participants) seen.insert(i);
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Participation, ParticipantsAreSortedAndUnique) {
  CountingClient clients[5];
  InProcessTransport transport;
  FederatedAveraging server({&clients[0], &clients[1], &clients[2],
                             &clients[3], &clients[4]},
                            &transport);
  server.initialize({1.0});
  server.set_sampling({.fraction = 0.6, .seed = 17});
  for (int r = 0; r < 10; ++r) {
    const auto participants = server.run_round().participants;
    EXPECT_TRUE(std::is_sorted(participants.begin(), participants.end()));
    const std::set<std::size_t> unique(participants.begin(),
                                       participants.end());
    EXPECT_EQ(unique.size(), participants.size());
  }
}

TEST(Participation, TrafficScalesWithParticipants) {
  CountingClient clients[4];
  InProcessTransport transport;
  FederatedAveraging server(
      {&clients[0], &clients[1], &clients[2], &clients[3]}, &transport);
  server.initialize({1.0, 2.0});
  server.set_sampling({.fraction = 0.5, .seed = 19});
  server.run_round();
  // 2 participants -> 2 uplink and 2 downlink transfers.
  EXPECT_EQ(transport.stats().uplink_transfers, 2u);
  EXPECT_EQ(transport.stats().downlink_transfers, 2u);
}

TEST(ParticipationDeathTest, RejectsBadFraction) {
  CountingClient a;
  InProcessTransport transport;
  FederatedAveraging server({&a}, &transport);
  EXPECT_DEATH(server.set_sampling({.fraction = 0.0, .seed = 1}),
               "precondition");
  EXPECT_DEATH(server.set_sampling({.fraction = 1.5, .seed = 1}),
               "precondition");
}

TEST(FederationCodec, QuantizedCodecPluggedIn) {
  CountingClient a;
  CountingClient b;
  InProcessTransport transport;
  FederatedAveraging server({&a, &b}, &transport,
                            AggregationMode::kUnweightedMean,
                            &QuantizedCodec::instance());
  server.initialize({0.25, -0.5, 0.75});
  server.run_round();
  EXPECT_EQ(server.codec().name(), "int8");
  // Values survive within the quantization bound.
  EXPECT_NEAR(server.global_model()[0], 0.25,
              QuantizedCodec::max_error(-0.5, 0.75) + 1e-9);
  // Payloads on the wire are the quantized size, not float32.
  EXPECT_EQ(transport.stats().uplink_bytes,
            2 * QuantizedCodec::instance().payload_size(3));
}

}  // namespace
}  // namespace fedpower::fed
