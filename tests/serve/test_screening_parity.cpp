// Serve-path screening parity (DESIGN.md §13): both committers run one
// screen — the non-finite check on every decoded upload and, with the
// defense armed, the same fed::DefenseStage — so the synchronous server
// and the sharded serve pipeline hand down identical verdicts under
// identical fault schedules, and a defended serve round screens an
// inflating client exactly as a defended sync round does.
#include <gtest/gtest.h>

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

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

TEST(ScreeningParity, DefendedServeScreensAnInflatingClientLikeSync) {
  // The 50x envelope jump from round 6 on: the norm screen rejects it on
  // both paths, the repeat offender is quarantined, and the model never
  // sees an inflated upload.
  fed::DefenseConfig defense;
  defense.enabled = true;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    ScriptedClient sync_a(0.01), sync_b(0.01);
    InflatingClient sync_bloated(0.01, /*inflate_from=*/6, /*factor=*/50.0);
    ScriptedClient serve_a(0.01), serve_b(0.01);
    InflatingClient serve_bloated(0.01, 6, 50.0);
    fed::InProcessTransport sync_wire;
    fed::InProcessTransport serve_wire;
    fed::FederatedAveraging sync_server({&sync_a, &sync_b, &sync_bloated},
                                        &sync_wire);
    ServeConfig config;
    config.workers = workers;
    ShardedServer server(3, config);
    fed::FederatedAveraging serve({&serve_a, &serve_b, &serve_bloated},
                                  &serve_wire, &server);
    for (fed::FederatedAveraging* fed : {&sync_server, &serve}) {
      fed->enable_defense(defense);
      fed->initialize(kInit);
    }
    for (int round = 1; round <= 10; ++round) {
      const fed::RoundResult s = sync_server.run_round();
      const fed::RoundResult v = serve.run_round();
      EXPECT_EQ(v.screened, s.screened) << "round " << round;
      EXPECT_EQ(v.quarantined, s.quarantined) << "round " << round;
      EXPECT_EQ(v.readmitted, s.readmitted) << "round " << round;
      EXPECT_EQ(v.clipped, s.clipped) << "round " << round;
      EXPECT_EQ(sync_server.global_model(), serve.global_model())
          << "round " << round << ", " << workers << " workers";
      // Honest uploads bank norm history through round 5; from round 6
      // the inflated upload is screened until its client is quarantined.
      if (round <= 5) {
        EXPECT_TRUE(v.screened.empty()) << "round " << round;
      } else if (round <= 8) {
        EXPECT_EQ(v.screened, (std::vector<std::size_t>{2}))
            << "round " << round;
      } else {
        EXPECT_EQ(v.quarantined, (std::vector<std::size_t>{2}))
            << "round " << round;
      }
    }
    // The screened uploads still decoded cleanly and finite.
    EXPECT_EQ(server.client_record(2).accepted, 10u);
    EXPECT_EQ(server.client_record(2).rejected, 0u);
  }
}

}  // namespace
}  // namespace fedpower::serve
