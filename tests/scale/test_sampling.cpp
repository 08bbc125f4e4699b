// Fleet-scale client sampling: SamplingConfig semantics, the
// quarantine-blind-draw and spurious-quorum regressions, and determinism
// of the participation stream across executors and checkpoint/resume
// (DESIGN.md §11).
#include <gtest/gtest.h>

#include <limits>
#include <span>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/federation.hpp"
#include "runtime/thread_pool.hpp"

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

/// Client that always uploads NaN: screened as non-finite every round, so
/// its reputation only falls — the fastest deterministic road into (and
/// never out of) quarantine.
class PoisonClient final : public FederatedClient {
 public:
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override {
    return std::vector<double>(params_.size(),
                               std::numeric_limits<double>::quiet_NaN());
  }
  void run_local_round() override {}

 private:
  std::vector<double> params_;
};

/// Uploads NaN for the first `recover_after` local rounds, then behaves
/// like an honest client (tests/fed/test_defense_federation.cpp idiom).
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

DefenseConfig fast_defense() {
  DefenseConfig config;
  config.enabled = true;
  config.warmup_rounds = 1;
  config.norm_min_samples = 4;
  return config;
}

// --- quarantine-blind draw (regression) ----------------------------------
//
// Pre-fix, draw_participants shuffled the FULL fleet: a round could spend
// its whole C-fraction on quarantined clients, silently aggregate nothing
// and abort on the quorum with zero faults anywhere. Seed 15 is chosen so
// the historic algorithm's first draw over 6 clients at C = 1/3 selects
// exactly {4, 5} — the two quarantined clients — so this test throws
// QuorumError on the pre-fix code.

TEST(SamplingQuarantine, DrawIsSpentOnEligibleClientsOnly) {
  std::vector<ScriptedClient> honest(4, ScriptedClient(0.01));
  PoisonClient bad[2];
  InProcessTransport transport;
  FederatedAveraging server({&honest[0], &honest[1], &honest[2], &honest[3],
                             &bad[0], &bad[1]},
                            &transport);
  server.enable_defense(fast_defense());
  server.initialize({1.0, 1.0});

  // Full participation while the NaN uploads burn reputation: after three
  // strikes (1.0 - 3 * 0.25 < 0.5) both poison clients are quarantined.
  // fraction = 1 consumes no participation randomness, so the stream below
  // starts at the seed's first draw.
  server.run(3);
  ASSERT_TRUE(server.defense()->quarantined(4));
  ASSERT_TRUE(server.defense()->quarantined(5));

  SamplingConfig sampling;
  sampling.fraction = 1.0 / 3.0;
  sampling.seed = 15;
  server.set_sampling(sampling);

  const RoundResult result = server.run_round();  // pre-fix: QuorumError
  // ceil(1/3 * 4 eligible) = 2 drawn from {0..3}, plus both quarantined
  // clients riding along on probation.
  ASSERT_EQ(result.participants.size(), 4u);
  EXPECT_EQ(result.quarantined, (std::vector<std::size_t>{4, 5}));
  std::size_t eligible_drawn = 0;
  for (const std::size_t i : result.participants)
    if (i < 4) ++eligible_drawn;
  EXPECT_EQ(eligible_drawn, 2u);
  EXPECT_EQ(result.effective_clients(), 2u);
}

TEST(SamplingQuarantine, RidersKeepProbationMovingAtSmallFraction) {
  // A quarantined client must be able to earn re-admission even when the
  // C-fraction draw would essentially never select it by chance.
  std::vector<ScriptedClient> honest(4, ScriptedClient(0.01));
  FlakyClient bad(0.01, /*recover_after=*/3);
  InProcessTransport transport;
  FederatedAveraging server({&honest[0], &honest[1], &honest[2], &honest[3],
                             &bad},
                            &transport);
  server.enable_defense(fast_defense());
  server.initialize({1.0, 1.0});
  server.run(3);
  ASSERT_TRUE(server.defense()->quarantined(4));

  // From here the flaky client uploads clean models again. Every sampled
  // round it rides along on probation and its upload is screened; after
  // probation_rounds clean uploads it is re-admitted although the draw
  // itself (C = 0.25 over 4 eligible = 1 client) may never have picked it.
  SamplingConfig sampling;
  sampling.fraction = 0.25;
  sampling.seed = 7;
  server.set_sampling(sampling);
  bool readmitted = false;
  for (int r = 0; r < 8 && !readmitted; ++r) {
    const RoundResult result = server.run_round();
    if (!result.quarantined.empty()) {
      EXPECT_EQ(result.quarantined, (std::vector<std::size_t>{4}));
    }
    readmitted = !result.readmitted.empty();
  }
  EXPECT_TRUE(readmitted);
  EXPECT_FALSE(server.defense()->quarantined(4));
}

// --- quorum under partial participation (regression) ---------------------
//
// Pre-fix, run_round compared the survivor count against the absolute
// quorum: a 10-client federation with quorum 5 at C = 0.2 drew 2 clients
// and threw QuorumError on EVERY round, faults or not.

TEST(SamplingQuorum, QuorumIsCheckedAgainstTheRoundsDraw) {
  std::vector<ScriptedClient> clients(10, ScriptedClient(0.01));
  std::vector<FederatedClient*> ptrs;
  for (auto& c : clients) ptrs.push_back(&c);
  InProcessTransport transport;
  FederatedAveraging server(ptrs, &transport);
  server.set_quorum(5);
  server.set_sampling({.fraction = 0.2, .seed = 21});
  server.initialize({1.0});
  // Draws 2 of 10; both survive, so the round must complete (pre-fix:
  // QuorumError, 2 survivors < quorum 5).
  for (int r = 0; r < 5; ++r) {
    const RoundResult result = server.run_round();
    EXPECT_EQ(result.participants.size(), 2u);
    EXPECT_EQ(result.effective_clients(), 2u);
  }
  EXPECT_EQ(server.rounds_completed(), 5u);
}

TEST(SamplingQuorum, FaultsWithinTheDrawStillAbort) {
  // The relaxed check still demands that every drawn client survive when
  // the draw is below the configured quorum: one dropout in a 2-client
  // draw aborts the round.
  std::vector<ScriptedClient> clients(10, ScriptedClient(0.01));
  std::vector<FederatedClient*> ptrs;
  for (auto& c : clients) ptrs.push_back(&c);
  InProcessTransport good;
  FederatedAveraging server(ptrs, &good);
  server.set_quorum(5);
  server.set_sampling({.fraction = 0.2, .seed = 21});
  server.initialize({1.0});
  // Cut one drawn client's private link. Seed 21's first draw is {0, 7}
  // (golden, from the historic stream — fraction semantics keep it).
  const std::vector<std::size_t> first_draw = {0, 7};
  class DeadTransport final : public Transport {
   public:
    std::vector<std::uint8_t> transfer(Direction,
                                       std::vector<std::uint8_t>) override {
      throw TransportError("link down");
    }
    const TrafficStats& stats() const noexcept override { return stats_; }

   private:
    TrafficStats stats_;
  } dead;
  server.set_client_transport(first_draw[0], &dead);
  try {
    server.run_round();
    FAIL() << "round must abort: 1 survivor of a 2-client draw, quorum 5";
  } catch (const QuorumError& e) {
    EXPECT_EQ(e.survivors(), 1u);
    EXPECT_EQ(e.required(), 2u);  // min(quorum 5, draw 2)
  }
  EXPECT_EQ(server.rounds_completed(), 0u);
}

TEST(SamplingQuorum, AllRidersRoundStillAborts) {
  // A round whose every participant is quarantined aggregates nothing and
  // must abort even with quorum 1: at least one upload must survive.
  std::vector<ScriptedClient> honest(2, ScriptedClient(0.01));
  PoisonClient bad[2];
  InProcessTransport transport;
  FederatedAveraging server({&honest[0], &honest[1], &bad[0], &bad[1]},
                            &transport);
  server.enable_defense(fast_defense());
  server.initialize({1.0, 1.0});
  server.run(3);
  ASSERT_TRUE(server.defense()->quarantined(2));
  ASSERT_TRUE(server.defense()->quarantined(3));
  // Cut both honest clients' links: the drawn set survives only as
  // probation riders.
  class DeadTransport final : public Transport {
   public:
    std::vector<std::uint8_t> transfer(Direction,
                                       std::vector<std::uint8_t>) override {
      throw TransportError("link down");
    }
    const TrafficStats& stats() const noexcept override { return stats_; }

   private:
    TrafficStats stats_;
  } dead;
  server.set_client_transport(0, &dead);
  server.set_client_transport(1, &dead);
  EXPECT_THROW(server.run_round(), QuorumError);
}

// --- stream shape --------------------------------------------------------

TEST(SamplingStream, HistoricParticipationStreamIsPreserved) {
  // The SamplingConfig refactor must not move existing runs' draws: these
  // golden sequences were generated with the pre-refactor algorithm
  // (shuffle + resize + sort) for 5 clients, C = 0.5, seed 99. With no
  // defense armed the eligible set is the whole fleet, and the shuffle
  // must consume the stream identically.
  std::vector<ScriptedClient> clients(5, ScriptedClient(0.01));
  std::vector<FederatedClient*> ptrs;
  for (auto& c : clients) ptrs.push_back(&c);
  InProcessTransport transport;
  FederatedAveraging server(ptrs, &transport);
  server.set_sampling({.fraction = 0.5, .seed = 99});
  server.initialize({1.0});
  const std::vector<std::vector<std::size_t>> golden = {
      {1, 2, 4},
      {0, 1, 4},
      {0, 1, 2},
      {2, 3, 4},
  };
  for (const auto& expected : golden)
    EXPECT_EQ(server.run_round().participants, expected);
}

TEST(SamplingStream, FullParticipationConsumesNoRandomness) {
  // fraction = 1 must not touch the participation stream: a run that
  // switches to partial sampling later starts from the seed's first draw
  // regardless of how many full rounds preceded it.
  std::vector<ScriptedClient> a(5, ScriptedClient(0.01));
  std::vector<ScriptedClient> b(5, ScriptedClient(0.01));
  std::vector<FederatedClient*> pa, pb;
  for (auto& c : a) pa.push_back(&c);
  for (auto& c : b) pb.push_back(&c);
  InProcessTransport ta, tb;
  FederatedAveraging full_first(pa, &ta);
  FederatedAveraging partial_only(pb, &tb);
  full_first.initialize({1.0});
  partial_only.initialize({1.0});

  SamplingConfig sampling;
  sampling.fraction = 0.4;
  sampling.seed = 1234;
  full_first.set_sampling(sampling);
  // Ten full-participation rounds on the same stream...
  SamplingConfig full = sampling;
  full.fraction = 1.0;
  full_first.set_sampling(full);
  full_first.run(10);
  // ...then partial: the draws must equal a federation that sampled
  // partially from round one.
  full_first.set_sampling(sampling);
  partial_only.set_sampling(sampling);
  for (int r = 0; r < 4; ++r)
    EXPECT_EQ(full_first.run_round().participants,
              partial_only.run_round().participants);
}

TEST(SamplingStream, MinClientsFloorsTheDraw) {
  std::vector<ScriptedClient> clients(8, ScriptedClient(0.01));
  std::vector<FederatedClient*> ptrs;
  for (auto& c : clients) ptrs.push_back(&c);
  InProcessTransport transport;
  FederatedAveraging server(ptrs, &transport);
  SamplingConfig sampling;
  sampling.fraction = 0.01;  // ceil(0.01 * 8) = 1
  sampling.min_clients = 3;
  sampling.seed = 5;
  server.set_sampling(sampling);
  server.initialize({1.0});
  EXPECT_EQ(server.run_round().participants.size(), 3u);
  // The floor clamps at the eligible count: a fleet of 8 with
  // min_clients = 20 fields everyone, not an error.
  sampling.min_clients = 20;
  server.set_sampling(sampling);
  EXPECT_EQ(server.run_round().participants.size(), 8u);
}

// --- determinism ---------------------------------------------------------

TEST(SamplingDeterminism, ParticipantStreamsMatchAcrossExecutors) {
  // The participation stream is drawn on the serial control path, so the
  // executor must have zero influence on who is selected.
  std::vector<ScriptedClient> serial_clients(12, ScriptedClient(0.01));
  std::vector<ScriptedClient> parallel_clients(12, ScriptedClient(0.01));
  std::vector<FederatedClient*> ps, pp;
  for (auto& c : serial_clients) ps.push_back(&c);
  for (auto& c : parallel_clients) pp.push_back(&c);
  InProcessTransport ts, tp;
  FederatedAveraging serial(ps, &ts);
  FederatedAveraging parallel(pp, &tp);
  runtime::ThreadPool pool(4);
  parallel.set_local_executor(pool.executor());
  for (FederatedAveraging* server : {&serial, &parallel}) {
    server->set_sampling({.fraction = 0.3, .seed = 77});
    server->initialize({1.0, 2.0});
  }
  for (int r = 0; r < 10; ++r) {
    const RoundResult a = serial.run_round();
    const RoundResult b = parallel.run_round();
    EXPECT_EQ(a.participants, b.participants);
    EXPECT_EQ(serial.global_model(), parallel.global_model());
  }
}

TEST(SamplingDeterminism, StreamSurvivesCheckpointResume) {
  // Mid-run snapshot: the resumed federation must draw the exact clients
  // the uninterrupted one does.
  std::vector<ScriptedClient> run_clients(9, ScriptedClient(0.01));
  std::vector<ScriptedClient> resume_clients(9, ScriptedClient(0.01));
  std::vector<FederatedClient*> pr, pm;
  for (auto& c : run_clients) pr.push_back(&c);
  for (auto& c : resume_clients) pm.push_back(&c);
  InProcessTransport tr, tm;
  FederatedAveraging uninterrupted(pr, &tr);
  FederatedAveraging resumed(pm, &tm);
  SamplingConfig sampling;
  sampling.fraction = 0.35;
  sampling.seed = 4242;
  for (FederatedAveraging* server : {&uninterrupted, &resumed}) {
    server->set_sampling(sampling);
    server->initialize({0.5, -0.5});
  }
  uninterrupted.run(3);
  resumed.run(3);
  ckpt::Writer out;
  uninterrupted.save_state(out);

  // Fresh server, same config shape; restore overrides the stream cursor.
  std::vector<ScriptedClient> fresh_clients(9, ScriptedClient(0.01));
  std::vector<FederatedClient*> pf;
  for (auto& c : fresh_clients) pf.push_back(&c);
  InProcessTransport tf;
  FederatedAveraging fresh(pf, &tf);
  fresh.set_sampling(sampling);
  ckpt::Reader in(out.data());
  fresh.restore_state(in);

  for (int r = 0; r < 5; ++r) {
    const RoundResult expected = resumed.run_round();
    const RoundResult actual = fresh.run_round();
    EXPECT_EQ(actual.participants, expected.participants);
  }
}

}  // namespace
}  // namespace fedpower::fed
