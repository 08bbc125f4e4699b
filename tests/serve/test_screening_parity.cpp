// Serve-path screening parity (DESIGN.md §13): both federation servers
// route uploads through the same fed:: screening primitives, so the
// synchronous server and the sharded serve pipeline hand down identical
// verdicts under identical fault schedules — and the serve-side norm
// screen, built on per-client history only, is worker-count invariant and
// survives an SRVR checkpoint roundtrip.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/fault_injection.hpp"
#include "fed/federation.hpp"
#include "fed/transport.hpp"
#include "serve/server.hpp"

namespace fedpower::serve {
namespace {

/// Honest client: installs the broadcast, adds `delta` per local round.
class ScriptedClient final : public fed::FederatedClient {
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

/// Uploads NaN every round — the shape the shared non-finite screen must
/// reject on both federation paths.
class NanClient final : public fed::FederatedClient {
 public:
  void receive_global(std::span<const double> params) override {
    width_ = params.size();
  }
  std::vector<double> local_parameters() const override {
    return std::vector<double>(width_,
                               std::numeric_limits<double>::quiet_NaN());
  }
  void run_local_round() override {}

 private:
  std::size_t width_ = 0;
};

/// Honest until upload number `inflate_from`, then its uploads blow up by
/// `factor` — the envelope jump the serve-side norm screen exists for.
class InflatingClient final : public fed::FederatedClient {
 public:
  InflatingClient(double delta, std::size_t inflate_from, double factor)
      : delta_(delta), inflate_from_(inflate_from), factor_(factor) {}
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override {
    std::vector<double> out = params_;
    if (rounds_ >= inflate_from_)
      for (double& p : out) p *= factor_;
    return out;
  }
  void run_local_round() override {
    ++rounds_;
    for (double& p : params_) p += delta_;
  }

 private:
  double delta_;
  std::size_t inflate_from_;
  double factor_;
  std::size_t rounds_ = 0;
  std::vector<double> params_;
};

const std::vector<double> kInit{1.0, -2.0, 4.0};

TEST(ScreeningParity, NonFiniteVerdictsMatchTheSyncServerAtAnyWorkerCount) {
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ScriptedClient sync_a(0.5), sync_b(-0.25);
    NanClient sync_nan;
    ScriptedClient serve_a(0.5), serve_b(-0.25);
    NanClient serve_nan;
    fed::InProcessTransport sync_wire;
    fed::InProcessTransport serve_wire;
    fed::FederatedAveraging sync_server({&sync_a, &sync_nan, &sync_b},
                                        &sync_wire);
    ServeConfig config;
    config.workers = workers;
    ShardedServer server(3, config);
    fed::FederatedAveraging serve({&serve_a, &serve_nan, &serve_b},
                                  &serve_wire, &server);
    sync_server.initialize(kInit);
    serve.initialize(kInit);
    for (int round = 0; round < 5; ++round) {
      const fed::RoundResult s = sync_server.run_round();
      const fed::RoundResult v = serve.run_round();
      // Both paths screen through fed::any_non_finite: same verdict list.
      EXPECT_EQ(s.rejected, (std::vector<std::size_t>{1}));
      EXPECT_EQ(v.rejected, s.rejected);
      EXPECT_EQ(v.dropped, s.dropped);
      EXPECT_EQ(sync_server.global_model(), serve.global_model());
    }
    EXPECT_EQ(server.stats().uplinks_rejected, 5u);
  }
}

TEST(ScreeningParity, VerdictsMatchUnderSeededFaultsWithANanClient) {
  // Transport faults and the non-finite screen at once: the two paths see
  // the same fault schedule (same seed, same transfer sequence), so every
  // exclusion list matches round for round.
  fed::FaultInjectionConfig faults;
  faults.drop_probability = 0.15;
  faults.truncate_probability = 0.1;
  faults.seed = 11;
  ScriptedClient sync_a(0.5), sync_b(-0.25), sync_c(1.0);
  NanClient sync_nan;
  ScriptedClient serve_a(0.5), serve_b(-0.25), serve_c(1.0);
  NanClient serve_nan;
  fed::InProcessTransport sync_inner;
  fed::InProcessTransport serve_inner;
  fed::FaultInjectingTransport sync_faulty(&sync_inner, faults);
  fed::FaultInjectingTransport serve_faulty(&serve_inner, faults);
  fed::FederatedAveraging sync_server(
      {&sync_a, &sync_nan, &sync_b, &sync_c}, &sync_faulty);
  ServeConfig config;
  config.workers = 2;
  ShardedServer server(4, config);
  fed::FederatedAveraging serve({&serve_a, &serve_nan, &serve_b, &serve_c},
                                &serve_faulty, &server);
  sync_server.initialize(kInit);
  serve.initialize(kInit);
  std::size_t committed = 0;
  for (int round = 0; round < 12; ++round) {
    std::optional<fed::RoundResult> s;
    std::optional<fed::RoundResult> v;
    try {
      s = sync_server.run_round();
    } catch (const fed::QuorumError&) {}
    try {
      v = serve.run_round();
    } catch (const fed::QuorumError&) {}
    ASSERT_EQ(s.has_value(), v.has_value()) << "round " << round;
    if (s) {
      EXPECT_EQ(v->rejected, s->rejected) << "round " << round;
      EXPECT_EQ(v->dropped, s->dropped) << "round " << round;
      ++committed;
    }
    EXPECT_EQ(sync_server.global_model(), serve.global_model());
  }
  EXPECT_GT(committed, 0u);
}

TEST(NormScreen, DisarmedByDefaultAndBlindBeforeHistoryArms) {
  // Default config: multiplier 0, screen off — the PR 7 verdict taxonomy
  // is untouched and even a 50x upload sails through.
  ScriptedClient a(0.01), b(0.01);
  InflatingClient bloated(0.01, /*inflate_from=*/2, /*factor=*/50.0);
  fed::InProcessTransport wire;
  ShardedServer server(3);
  fed::FederatedAveraging serve({&a, &b, &bloated}, &wire, &server);
  serve.initialize(kInit);
  for (int round = 0; round < 6; ++round) {
    const fed::RoundResult result = serve.run_round();
    EXPECT_TRUE(result.screened.empty());
  }
  EXPECT_EQ(server.stats().uplinks_screened, 0u);
}

TEST(NormScreen, ScreensTheEnvelopeJumpOnceHistoryArms) {
  ScriptedClient a(0.01), b(0.01);
  InflatingClient bloated(0.01, /*inflate_from=*/6, /*factor=*/50.0);
  fed::InProcessTransport wire;
  ServeConfig config;
  config.norm_screen_multiplier = 3.0;
  config.norm_min_samples = 4;
  ShardedServer server(3, config);
  fed::FederatedAveraging serve({&a, &b, &bloated}, &wire, &server);
  serve.initialize(kInit);
  // Rounds 1-5: honest uploads bank norm history; nothing screens.
  for (int round = 1; round <= 5; ++round)
    EXPECT_TRUE(serve.run_round().screened.empty()) << "round " << round;
  // Round 6 on: the 50x upload towers over the client's own median.
  for (int round = 6; round <= 8; ++round) {
    const fed::RoundResult result = serve.run_round();
    EXPECT_EQ(result.screened, (std::vector<std::size_t>{2}))
        << "round " << round;
  }
  EXPECT_EQ(server.stats().uplinks_screened, 3u);
  EXPECT_EQ(server.client_record(2).screened, 3u);
  // The screened uploads never reached the aggregate: both honest clients
  // drift identically, so the global tracks them exactly.
  EXPECT_EQ(server.client_record(2).accepted, 5u);
}

TEST(NormScreen, VerdictsAndModelAreWorkerCountInvariant) {
  // The screen reads only the client's own ring — never cross-shard state
  // — so re-sharding the fleet cannot move a verdict.
  std::vector<std::vector<std::size_t>> reference_screened;
  std::vector<double> reference_global;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ScriptedClient a(0.01), b(0.02), c(-0.01);
    InflatingClient bloated(0.01, /*inflate_from=*/6, /*factor=*/50.0);
    fed::InProcessTransport wire;
    ServeConfig config;
    config.workers = workers;
    config.norm_screen_multiplier = 3.0;
    config.norm_min_samples = 4;
    ShardedServer server(4, config);
    fed::FederatedAveraging serve({&a, &b, &bloated, &c}, &wire, &server);
    serve.initialize(kInit);
    std::vector<std::vector<std::size_t>> screened;
    for (int round = 0; round < 9; ++round)
      screened.push_back(serve.run_round().screened);
    if (workers == 1) {
      reference_screened = screened;
      reference_global = serve.global_model();
      // The scenario actually fires: at least one screened round.
      EXPECT_FALSE(screened[6].empty());
    } else {
      EXPECT_EQ(screened, reference_screened) << workers << " workers";
      EXPECT_EQ(serve.global_model(), reference_global)
          << workers << " workers";
    }
  }
}

TEST(NormScreen, ScreeningCountersSurviveACheckpointRoundtrip) {
  /// One serve-path federation: the driver and the committer it owns.
  struct Rig {
    ShardedServer server;
    fed::FederatedAveraging driver;
    Rig(std::vector<fed::FederatedClient*> clients, fed::Transport* wire,
        const ServeConfig& config)
        : server(clients.size(), config),
          driver(std::move(clients), wire, &server) {}
  };
  const auto build = [](std::vector<fed::FederatedClient*> clients,
                        fed::Transport* wire) {
    ServeConfig config;
    config.workers = 2;
    config.norm_screen_multiplier = 3.0;
    config.norm_min_samples = 4;
    auto serve = std::make_unique<Rig>(std::move(clients), wire, config);
    serve->driver.initialize(kInit);
    return serve;
  };
  ScriptedClient a(0.01), b(0.01);
  InflatingClient bloated(0.01, /*inflate_from=*/6, /*factor=*/50.0);
  fed::InProcessTransport wire;
  auto serve = build({&a, &b, &bloated}, &wire);
  serve->driver.run(7);  // through the first screened round
  ASSERT_GT(serve->server.stats().uplinks_screened, 0u);
  ckpt::Writer snapshot;
  serve->driver.save_state(snapshot);

  ScriptedClient a2(0.01), b2(0.01);
  InflatingClient bloated2(0.01, 6, 50.0);
  fed::InProcessTransport wire2;
  auto resumed = build({&a2, &b2, &bloated2}, &wire2);
  ckpt::Reader in(snapshot.data());
  resumed->driver.restore_state(in);
  EXPECT_TRUE(in.exhausted());
  // The new counters rode the SRVR section: stats, per-client record and
  // a bit-identical re-serialization.
  EXPECT_EQ(resumed->server.stats().uplinks_screened,
            serve->server.stats().uplinks_screened);
  EXPECT_EQ(resumed->server.client_record(2).screened,
            serve->server.client_record(2).screened);
  ckpt::Writer again;
  resumed->driver.save_state(again);
  EXPECT_EQ(again.data(), snapshot.data());
}

}  // namespace
}  // namespace fedpower::serve
