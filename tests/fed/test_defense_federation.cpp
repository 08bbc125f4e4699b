// Defense pipeline wired into the federation: screening and quarantine in
// live rounds, the exclusion-category accounting of RoundResult, quorum
// interaction with every exclusion source at once, and serial/parallel
// bit-identity of the whole defended trajectory (DESIGN.md §10).
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

#include "fed/byzantine.hpp"
#include "fed/federation.hpp"
#include "runtime/thread_pool.hpp"

namespace fedpower::fed {
namespace {

// --- RoundResult::effective_clients (regression) ------------------------

TEST(EffectiveClients, NoExclusionsCountsAllParticipants) {
  RoundResult result;
  result.participants = {0, 1, 2, 3};
  EXPECT_EQ(result.effective_clients(), 4u);
}

TEST(EffectiveClients, OverlappingCategoriesSubtractOnce) {
  // Client 2 is screened AND quarantined, client 1 dropped AND rejected: a
  // naive sum of the list sizes would subtract 6 from 5 participants.
  RoundResult result;
  result.participants = {0, 1, 2, 3, 4};
  result.dropped = {1};
  result.rejected = {1, 2};
  result.screened = {2, 3};
  result.quarantined = {2};
  EXPECT_EQ(result.effective_clients(), 2u);  // survivors: 0 and 4
  EXPECT_EQ(result.effective_clients(), 2u);
}

TEST(EffectiveClients, FullyExcludedRoundDoesNotUnderflow) {
  // Every participant excluded in multiple categories at once: the old
  // size_t arithmetic (participants - sum of list sizes) wrapped around to
  // ~2^64; the count must clamp at zero.
  RoundResult result;
  result.participants = {0, 1};
  result.dropped = {0, 1};
  result.rejected = {0};
  result.screened = {0, 1};
  result.quarantined = {1};
  EXPECT_EQ(result.effective_clients(), 0u);
}

// --- scripted clients ----------------------------------------------------

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

/// Diverged device: uploads NaN until `recover_after` local rounds have
/// passed, then behaves honestly — the shape that should be quarantined
/// and later earn re-admission.
class FlakyClient final : public FederatedClient {
 public:
  FlakyClient(double delta, std::size_t recover_after)
      : delta_(delta), recover_after_(recover_after) {}
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override {
    if (rounds_ <= recover_after_)
      return std::vector<double>(params_.size(),
                                 std::numeric_limits<double>::quiet_NaN());
    return params_;
  }
  void run_local_round() override {
    ++rounds_;
    for (double& p : params_) p += delta_;
  }

 private:
  double delta_;
  std::size_t recover_after_;
  std::size_t rounds_ = 0;
  std::vector<double> params_;
};

/// Transport whose link can be cut between rounds.
class ToggleFaultTransport final : public Transport {
 public:
  std::vector<std::uint8_t> transfer(
      Direction direction, std::vector<std::uint8_t> payload) override {
    if (down) throw TransportError("link down");
    return inner_.transfer(direction, std::move(payload));
  }
  const TrafficStats& stats() const noexcept override {
    return inner_.stats();
  }

  bool down = false;

 private:
  InProcessTransport inner_;
};

/// Screens arm after one committed round and four accepted norms.
DefenseConfig fast_defense() {
  DefenseConfig config;
  config.enabled = true;
  config.warmup_rounds = 1;
  config.norm_min_samples = 4;
  return config;
}

// --- defended rounds -----------------------------------------------------

TEST(DefendedFederation, SignFlipperIsScreenedThenQuarantined) {
  std::vector<ScriptedClient> honest;
  honest.reserve(4);
  for (int c = 0; c < 4; ++c) honest.emplace_back(0.01);
  ScriptedClient attacker_inner(0.01);
  ClientFaultConfig attack;
  attack.attack = UploadAttack::kSignFlip;
  attack.scale = 10.0;
  ByzantineClient attacker(&attacker_inner, attack);

  InProcessTransport transport;
  FederatedAveraging server(
      {&honest[0], &honest[1], &honest[2], &honest[3], &attacker},
      &transport);
  server.enable_defense(fast_defense());
  server.initialize({0.5, 0.5, 0.5, 0.5});

  // Round 1 is warm-up: the flipped upload sails through into the mean.
  const RoundResult warmup = server.run_round();
  EXPECT_TRUE(warmup.screened.empty());
  EXPECT_LT(server.global_model()[0], 0.0);  // poison landed once
  const double poisoned = server.global_model()[0];

  // Rounds 2-4: the cosine screen rejects the flip every round until the
  // third strike quarantines the attacker (1.0 - 3 * 0.25 < 0.5).
  for (int round = 2; round <= 4; ++round) {
    const RoundResult result = server.run_round();
    EXPECT_EQ(result.screened, (std::vector<std::size_t>{4}));
    EXPECT_TRUE(result.quarantined.empty());
  }
  const RoundResult quarantined_round = server.run_round();
  EXPECT_TRUE(quarantined_round.screened.empty());
  EXPECT_EQ(quarantined_round.quarantined, (std::vector<std::size_t>{4}));
  ASSERT_NE(server.defense(), nullptr);
  EXPECT_TRUE(server.defense()->quarantined(4));
  // With the attacker fenced off from round 2 on, only the honest drift
  // (+0.01 per round) moves the model — steadily away from the poison.
  EXPECT_NEAR(server.global_model()[0], poisoned + 4 * 0.01, 1e-5);
}

TEST(DefendedFederation, RecoveredClientEarnsReadmission) {
  std::vector<ScriptedClient> honest;
  honest.reserve(3);
  for (int c = 0; c < 3; ++c) honest.emplace_back(0.01);
  FlakyClient flaky(0.01, /*recover_after=*/3);
  InProcessTransport transport;
  FederatedAveraging server({&honest[0], &honest[1], &honest[2], &flaky},
                            &transport);
  server.enable_defense(fast_defense());
  server.initialize({0.5, 0.5, 0.5, 0.5});

  // Rounds 1-3: NaN uploads are rejected server-side; the third strike
  // quarantines the device.
  for (int round = 1; round <= 3; ++round) {
    const RoundResult result = server.run_round();
    EXPECT_EQ(result.rejected, (std::vector<std::size_t>{3}));
  }
  EXPECT_TRUE(server.defense()->quarantined(3));

  // Recovered: three consecutive clean (probation) uploads re-admit it at
  // the end of round 6; round 7 aggregates it again.
  RoundResult result = server.run_round();
  EXPECT_EQ(result.quarantined, (std::vector<std::size_t>{3}));
  EXPECT_TRUE(result.readmitted.empty());
  result = server.run_round();
  EXPECT_TRUE(result.readmitted.empty());
  result = server.run_round();
  EXPECT_EQ(result.readmitted, (std::vector<std::size_t>{3}));
  EXPECT_FALSE(server.defense()->quarantined(3));
  result = server.run_round();
  EXPECT_TRUE(result.quarantined.empty());
  EXPECT_EQ(result.effective_clients(), 4u);
}


// --- quorum interaction, serial vs parallel ------------------------------

/// Everything a defended quorum-abort trajectory observes, for bitwise
/// comparison across thread counts.
struct QuorumTrajectory {
  std::vector<double> global_before_abort;
  std::vector<double> reputation;
  std::size_t survivors_at_abort = 0;
  std::size_t rounds_completed = 0;
  bool quorum_threw = false;
};

/// Drives a fleet where, by round 5, every exclusion category is populated
/// at once: c5 sign-flips (quarantined), c6 uploads NaN (quarantined, still
/// rejected), and c7's link is cut (dropped). With quorum 6 the five honest
/// survivors cannot carry the round.
QuorumTrajectory run_quorum_scenario(std::size_t threads) {
  std::vector<ScriptedClient> honest;
  honest.reserve(5);
  for (int c = 0; c < 5; ++c) honest.emplace_back(0.01);
  ScriptedClient attacker_inner(0.01);
  ClientFaultConfig attack;
  attack.attack = UploadAttack::kSignFlip;
  attack.scale = 10.0;
  ByzantineClient attacker(&attacker_inner, attack);
  FlakyClient nan_client(0.01, /*recover_after=*/1000);
  ScriptedClient fragile(0.01);

  InProcessTransport transport;
  ToggleFaultTransport fragile_link;
  FederatedAveraging server(
      {&honest[0], &honest[1], &honest[2], &honest[3], &honest[4], &attacker,
       &nan_client, &fragile},
      &transport);
  server.set_client_transport(7, &fragile_link);
  server.enable_defense(fast_defense());
  server.set_quorum(6);
  server.initialize({0.5, 0.5, 0.5, 0.5});

  runtime::ThreadPool pool(threads);
  if (threads > 1) server.set_local_executor(pool.executor());

  QuorumTrajectory trajectory;
  // Rounds 1-4: c6 is quarantined after round 3, c5 after round 4; the six
  // clean uploads (five honest + fragile) keep the quorum satisfied.
  for (int round = 1; round <= 4; ++round) server.run_round();
  trajectory.global_before_abort = server.global_model();

  fragile_link.down = true;
  try {
    server.run_round();
  } catch (const QuorumError& error) {
    trajectory.quorum_threw = true;
    trajectory.survivors_at_abort = error.survivors();
  }
  trajectory.rounds_completed = server.rounds_completed();
  for (std::size_t c = 0; c < server.client_count(); ++c)
    trajectory.reputation.push_back(server.defense()->reputation(c));

  // The cut link heals: the very next round completes with six uploads,
  // proving the abort left the federation in a re-runnable state.
  fragile_link.down = false;
  server.run_round();
  return trajectory;
}

TEST(DefendedFederation, AllExclusionSourcesCrossingQuorumAbortTheRound) {
  const QuorumTrajectory trajectory = run_quorum_scenario(1);
  EXPECT_TRUE(trajectory.quorum_threw);
  EXPECT_EQ(trajectory.survivors_at_abort, 5u);
  // The aborted round advanced nothing: counter still at the 4 completed
  // rounds, and the attacker's reputation was not double-penalized (its
  // observations were dropped with the round).
  EXPECT_EQ(trajectory.rounds_completed, 4u);
  EXPECT_DOUBLE_EQ(trajectory.reputation[5], 0.25);
  EXPECT_DOUBLE_EQ(trajectory.reputation[0], 1.0);
}

TEST(DefendedFederation, QuorumAbortTrajectoryIsBitIdenticalAcrossThreads) {
  const QuorumTrajectory serial = run_quorum_scenario(1);
  const QuorumTrajectory parallel = run_quorum_scenario(4);
  EXPECT_EQ(parallel.quorum_threw, serial.quorum_threw);
  EXPECT_EQ(parallel.survivors_at_abort, serial.survivors_at_abort);
  EXPECT_EQ(parallel.rounds_completed, serial.rounds_completed);
  EXPECT_EQ(parallel.global_before_abort, serial.global_before_abort);
  EXPECT_EQ(parallel.reputation, serial.reputation);
}

}  // namespace
}  // namespace fedpower::fed
