#include "fed/dp.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/rng.hpp"

namespace fedpower::fed {
namespace {

class MovingClient final : public FederatedClient {
 public:
  explicit MovingClient(std::vector<double> delta) : delta_(std::move(delta)) {}

  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {
    for (std::size_t i = 0; i < params_.size(); ++i) params_[i] += delta_[i];
  }

 private:
  std::vector<double> delta_;
  std::vector<double> params_;
};

TEST(L2Norm, KnownValues) {
  EXPECT_DOUBLE_EQ(l2_norm(std::vector<double>{3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(l2_norm(std::vector<double>{}), 0.0);
}

TEST(ClipToNorm, LeavesSmallVectorsAlone) {
  const std::vector<double> v = {0.3, 0.4};
  EXPECT_EQ(clip_to_norm(v, 1.0), v);
}

TEST(ClipToNorm, ScalesLargeVectors) {
  const auto clipped = clip_to_norm({3.0, 4.0}, 1.0);
  EXPECT_NEAR(l2_norm(clipped), 1.0, 1e-12);
  EXPECT_NEAR(clipped[0] / clipped[1], 0.75, 1e-12);  // direction kept
}

TEST(DpClient, UpdateClippedToNorm) {
  MovingClient inner({3.0, 4.0});  // one local round moves by norm-5 update
  DpConfig config;
  config.clip_norm = 1.0;
  DpClient client(&inner, config);
  client.receive_global(std::vector<double>{0.0, 0.0});
  client.run_local_round();
  const auto upload = client.local_parameters();
  EXPECT_NEAR(l2_norm(upload), 1.0, 1e-12);  // anchor 0 -> upload == update
  EXPECT_DOUBLE_EQ(client.last_update_norm(), 5.0);
}

TEST(DpClient, SmallUpdatePassesUnclipped) {
  MovingClient inner({0.1, 0.0});
  DpConfig config;
  config.clip_norm = 1.0;
  DpClient client(&inner, config);
  client.receive_global(std::vector<double>{1.0, 1.0});
  client.run_local_round();
  const auto upload = client.local_parameters();
  EXPECT_NEAR(upload[0], 1.1, 1e-12);
  EXPECT_NEAR(upload[1], 1.0, 1e-12);
}

TEST(DpClient, NoiseHasConfiguredScale) {
  MovingClient inner({0.0, 0.0});
  DpConfig config;
  config.clip_norm = 1.0;
  config.noise_multiplier = 0.1;
  config.seed = 7;
  DpClient client(&inner, config);
  client.receive_global(std::vector<double>(100, 0.0));
  // Zero update: uploads are pure noise with sigma = 0.1.
  double sum_sq = 0.0;
  const auto upload = client.local_parameters();
  for (const double x : upload) sum_sq += x * x;
  const double sigma = std::sqrt(sum_sq / 100.0);
  EXPECT_NEAR(sigma, 0.1, 0.03);
}

TEST(DpClient, ZeroNoiseIsDeterministic) {
  MovingClient inner({0.5, -0.5});
  DpConfig config;
  config.clip_norm = 10.0;
  DpClient client(&inner, config);
  client.receive_global(std::vector<double>{0.0, 0.0});
  client.run_local_round();
  EXPECT_EQ(client.local_parameters(), client.local_parameters());
}

TEST(DpClient, BeforeFirstGlobalUploadsRaw) {
  MovingClient inner({1.0});
  inner.receive_global(std::vector<double>{42.0});
  DpConfig config;
  config.noise_multiplier = 1.0;
  DpClient client(&inner, config);
  EXPECT_EQ(client.local_parameters(), (std::vector<double>{42.0}));
  EXPECT_DOUBLE_EQ(client.last_update_norm(), 0.0);
}

TEST(DpClient, WorksInsideFederation) {
  MovingClient inner_a({0.2, 0.0});
  MovingClient inner_b({0.0, 0.2});
  DpConfig config;
  config.clip_norm = 0.1;  // clips both updates from 0.2 to 0.1
  DpClient a(&inner_a, config);
  DpClient b(&inner_b, config);
  InProcessTransport transport;
  FederatedAveraging server({&a, &b}, &transport);
  server.initialize({0.0, 0.0});
  server.run_round();
  // Each update clipped to norm 0.1, averaged over 2 clients -> 0.05.
  EXPECT_NEAR(server.global_model()[0], 0.05, 1e-6);
  EXPECT_NEAR(server.global_model()[1], 0.05, 1e-6);
}

TEST(DpClient, UploadsMatchTheByValueReference) {
  // The three-vector form the decorator used to build per upload (raw
  // model, update, clipped and noised upload), replayed from the same
  // noise stream: the in-place upload must give the same bits.
  DpConfig config;
  config.clip_norm = 0.3;
  config.noise_multiplier = 0.4;
  config.seed = 11;
  MovingClient inner({0.25, -0.5, 0.125, 1e-3});
  DpClient client(&inner, config);
  MovingClient witness({0.25, -0.5, 0.125, 1e-3});
  util::Rng noise(config.seed);
  std::vector<double> global = {1.0, -2.0, 0.5, 3.0};
  std::vector<double> out = {9.0};  // stale contents are replaced
  for (int round = 0; round < 3; ++round) {
    client.receive_global(global);
    witness.receive_global(global);
    client.run_local_round();
    witness.run_local_round();
    const std::vector<double> raw = witness.local_parameters();
    std::vector<double> update(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i)
      update[i] = raw[i] - global[i];
    const double norm = l2_norm(update);
    update = clip_to_norm(std::move(update), 0.3);
    for (double& x : update) x += noise.normal(0.0, 0.4 * 0.3);
    std::vector<double> expected(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i)
      expected[i] = global[i] + update[i];

    client.copy_local_parameters_to(out);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      EXPECT_EQ(std::bit_cast<std::uint64_t>(out[i]),
                std::bit_cast<std::uint64_t>(expected[i]))
          << "round " << round << " index " << i;
    EXPECT_EQ(client.last_update_norm(), norm);
    global = out;
  }
}

TEST(DpClientDeathTest, RejectsBadConfig) {
  MovingClient inner({1.0});
  DpConfig bad;
  bad.clip_norm = 0.0;
  EXPECT_DEATH(DpClient(&inner, bad), "precondition");
  EXPECT_DEATH(DpClient(nullptr, DpConfig{}), "precondition");
}

}  // namespace
}  // namespace fedpower::fed
