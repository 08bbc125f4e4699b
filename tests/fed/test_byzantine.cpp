// Client-side attack models: what a compromised device uploads, when the
// attack activates, and that the wrapper checkpoints its replay state
// (DESIGN.md §10).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "ckpt/errors.hpp"
#include "fed/byzantine.hpp"

namespace fedpower::fed {
namespace {

/// Honest client whose model is simply {round, -round}: every local round
/// produces a distinct, predictable vector so replay lags are observable.
class CountingClient final : public FederatedClient {
 public:
  void receive_global(std::span<const double>) override {}
  std::vector<double> local_parameters() const override {
    const double r = static_cast<double>(rounds_);
    return {r, -r};
  }
  void run_local_round() override { ++rounds_; }

 private:
  std::size_t rounds_ = 0;
};

TEST(ByzantineClient, HonestConfigIsPassthrough) {
  CountingClient inner;
  ByzantineClient wrapper(&inner, {});
  wrapper.run_local_round();
  EXPECT_FALSE(wrapper.attack_active());
  EXPECT_EQ(wrapper.local_parameters(), inner.local_parameters());
}

TEST(ByzantineClient, SignFlipNegatesAndScalesTheModel) {
  CountingClient inner;
  ClientFaultConfig config;
  config.attack = UploadAttack::kSignFlip;
  config.scale = 2.0;
  ByzantineClient wrapper(&inner, config);
  wrapper.run_local_round();  // honest model {1, -1}
  EXPECT_TRUE(wrapper.attack_active());
  EXPECT_EQ(wrapper.local_parameters(), (std::vector<double>{-2.0, 2.0}));
}

TEST(ByzantineClient, ScaleAttackInflatesWithoutFlipping) {
  CountingClient inner;
  ClientFaultConfig config;
  config.attack = UploadAttack::kScale;
  config.scale = -4.0;  // the sign comes from the attack, not the config
  ByzantineClient wrapper(&inner, config);
  wrapper.run_local_round();
  EXPECT_EQ(wrapper.local_parameters(), (std::vector<double>{4.0, -4.0}));
}

TEST(ByzantineClient, SleeperStaysHonestUntilStartRound) {
  CountingClient inner;
  ClientFaultConfig config;
  config.attack = UploadAttack::kSignFlip;
  config.scale = 1.0;
  config.start_round = 3;
  ByzantineClient wrapper(&inner, config);
  for (int round = 0; round < 2; ++round) wrapper.run_local_round();
  EXPECT_FALSE(wrapper.attack_active());
  EXPECT_EQ(wrapper.local_parameters(), (std::vector<double>{2.0, -2.0}));
  wrapper.run_local_round();  // rounds_seen reaches start_round
  EXPECT_TRUE(wrapper.attack_active());
  EXPECT_EQ(wrapper.local_parameters(), (std::vector<double>{-3.0, 3.0}));
}

TEST(ByzantineClient, StaleReplayUploadsTheLaggedModel) {
  CountingClient inner;
  ClientFaultConfig config;
  config.attack = UploadAttack::kStaleReplay;
  config.stale_rounds = 2;
  ByzantineClient wrapper(&inner, config);
  wrapper.run_local_round();  // history: {1}
  EXPECT_EQ(wrapper.local_parameters(), (std::vector<double>{1.0, -1.0}));
  for (int round = 0; round < 4; ++round) wrapper.run_local_round();
  // After 5 rounds the bounded history holds models 4 and 5; the replay
  // serves the stalest one while the honest client is already at 5.
  EXPECT_EQ(inner.local_parameters(), (std::vector<double>{5.0, -5.0}));
  EXPECT_EQ(wrapper.local_parameters(), (std::vector<double>{4.0, -4.0}));
}

TEST(ByzantineClient, StaleReplayFallsBackToHonestWithEmptyHistory) {
  CountingClient inner;
  ClientFaultConfig config;
  config.attack = UploadAttack::kStaleReplay;
  config.stale_rounds = 3;
  const ByzantineClient wrapper(&inner, config);
  // No local round yet: nothing recorded, so the upload is the honest
  // model rather than an empty vector the server would have to drop.
  EXPECT_EQ(wrapper.local_parameters(), inner.local_parameters());
}

TEST(ByzantineClient, CheckpointRoundtripPreservesReplayState) {
  CountingClient inner;
  ClientFaultConfig config;
  config.attack = UploadAttack::kStaleReplay;
  config.stale_rounds = 3;
  ByzantineClient original(&inner, config);
  for (int round = 0; round < 5; ++round) original.run_local_round();

  ckpt::Writer out;
  original.save_state(out);
  const std::vector<std::uint8_t> bytes = out.take();

  CountingClient inner_restored;
  for (int round = 0; round < 5; ++round) inner_restored.run_local_round();
  ByzantineClient restored(&inner_restored, config);
  ckpt::Reader in(bytes);
  restored.restore_state(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.rounds_seen(), original.rounds_seen());
  EXPECT_EQ(restored.local_parameters(), original.local_parameters());
}

TEST(ByzantineClient, ResetMatchesAFreshWrapper) {
  // A stale-replay attacker with history, re-armed by reset() as a
  // sign-flip one, must equal a wrapper constructed with that config.
  CountingClient inner;
  ClientFaultConfig replay;
  replay.attack = UploadAttack::kStaleReplay;
  replay.stale_rounds = 2;
  ByzantineClient used(&inner, replay);
  for (int round = 0; round < 4; ++round) used.run_local_round();
  ClientFaultConfig flip;
  flip.attack = UploadAttack::kSignFlip;
  flip.start_round = 1;
  used.reset(flip);
  const ByzantineClient fresh(&inner, flip);
  const auto state = [](const ByzantineClient& client) {
    ckpt::Writer out;
    client.save_state(out);
    return out.take();
  };
  EXPECT_EQ(state(used), state(fresh));
  EXPECT_EQ(used.rounds_seen(), 0u);
  EXPECT_EQ(used.fault_config().attack, UploadAttack::kSignFlip);
  EXPECT_FALSE(used.attack_active());
}

TEST(ByzantineClient, CheckpointRejectsOversizedReplayWindow) {
  CountingClient inner;
  ClientFaultConfig wide;
  wide.attack = UploadAttack::kStaleReplay;
  wide.stale_rounds = 4;
  ByzantineClient original(&inner, wide);
  for (int round = 0; round < 6; ++round) original.run_local_round();

  ckpt::Writer out;
  original.save_state(out);
  const std::vector<std::uint8_t> bytes = out.take();

  ClientFaultConfig narrow = wide;
  narrow.stale_rounds = 2;
  CountingClient inner_restored;
  ByzantineClient restored(&inner_restored, narrow);
  ckpt::Reader in(bytes);
  EXPECT_THROW(restored.restore_state(in), ckpt::StateMismatchError);
}

}  // namespace
}  // namespace fedpower::fed
