// RoundResult::transport_retries counts the retries the round's transfers
// actually made: one inner link shared behind several ChurnTransport
// decorators (each forwards stats() to it) counts each retry once, and a
// transfer that throws after retrying still counts its retries.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chaos/churn_transport.hpp"
#include "fed/federation.hpp"

namespace fedpower::chaos {
namespace {

class EchoClient final : public fed::FederatedClient {
 public:
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {
    for (double& p : params_) p += 0.5;
  }

 private:
  std::vector<double> params_;
};

/// Makes `retries_per_transfer` reconnect attempts before every delivery;
/// the `throw_on`-th transfer (1-based, 0 = never) gives up after them.
class RetryingTransport final : public fed::Transport {
 public:
  explicit RetryingTransport(std::size_t retries_per_transfer,
                             std::size_t throw_on = 0)
      : retries_per_transfer_(retries_per_transfer), throw_on_(throw_on) {}

  std::vector<std::uint8_t> transfer(
      fed::Direction /*direction*/,
      std::vector<std::uint8_t> payload) override {
    ++transfers_;
    stats_.retries += retries_per_transfer_;
    if (transfers_ == throw_on_)
      throw fed::TransportError("link lost after retrying");
    return payload;
  }
  const fed::TrafficStats& stats() const noexcept override { return stats_; }

 private:
  std::size_t retries_per_transfer_;
  std::size_t throw_on_;
  std::size_t transfers_ = 0;
  fed::TrafficStats stats_;
};

TEST(RetryAccounting, CountsEachRetryOnceAcrossSharedAndThrowingLinks) {
  std::vector<EchoClient> clients(6);
  std::vector<fed::FederatedClient*> pointers;
  for (EchoClient& c : clients) pointers.push_back(&c);

  RetryingTransport shared(2);
  RetryingTransport private_ok(1);
  // Client 5's second transfer (its first uplink) fails after 3 retries.
  RetryingTransport private_lost(3, /*throw_on=*/2);
  std::vector<std::unique_ptr<ChurnTransport>> churn;
  fed::FederatedAveraging server(pointers, &shared);
  for (std::size_t c = 0; c < 4; ++c) {
    churn.push_back(std::make_unique<ChurnTransport>(&shared));
    server.set_client_transport(c, churn.back().get());
  }
  churn[3]->set_online(false);  // fails at once: no retries, a dropout
  server.set_client_transport(4, &private_ok);
  server.set_client_transport(5, &private_lost);
  server.initialize({1.0, 2.0});

  const auto made = [&] {
    return shared.stats().retries + private_ok.stats().retries +
           private_lost.stats().retries;
  };
  for (int round = 0; round < 2; ++round) {
    const std::size_t before = made();
    const fed::RoundResult result = server.run_round();
    EXPECT_EQ(result.transport_retries, made() - before) << "round " << round;
    // Clients 0-2: 2 transfers x 2 retries on the shared link; client 4:
    // 2 x 1; client 5: 2 x 3, on both rounds (round 0 loses its uplink
    // after retrying).
    EXPECT_EQ(result.transport_retries, 12u + 2u + 6u) << "round " << round;
    const std::vector<std::size_t> expected_dropped =
        round == 0 ? std::vector<std::size_t>{3, 5}
                   : std::vector<std::size_t>{3};
    EXPECT_EQ(result.dropped, expected_dropped) << "round " << round;
  }
}

}  // namespace
}  // namespace fedpower::chaos
