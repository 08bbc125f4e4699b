// Generated committer parity: the round driver over a LocalCommitter and
// over a deterministic ShardedServer must agree round by round on seeded,
// generated configurations, not only on the hand-picked ones in
// test_serve_federation.cpp. Each case draws the aggregation rule (mean,
// sample-weighted, median, trimmed), the sampling fraction and floor, the
// quorum, the fault injector's drop, truncate and delay rates and seed,
// the round deadline, the serve worker count (1, 2 or 4) and a scripted
// fleet that sometimes uploads non-finite models. On the defense axis a
// case also arms the defense pipeline with a short warm-up, samples
// quarantine-aware, and scripts some clients to sign-flip or scale their
// uploads for a window of rounds before turning honest again. Every round
// either both runs commit or both throw QuorumError; when they commit they
// agree on the model bits, the participant and exclusion lists, the
// defense's screened, quarantined and readmitted lists and clip count, and
// the byte counts. A defended case ends with identical defense snapshots.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/fault_injection.hpp"
#include "fed/federation.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace fedpower::serve {
namespace {

/// What a scripted client uploads while its attack window is open.
enum class Attack { kNone, kSignFlip, kScale };

struct Script {
  double delta = 0.0;
  std::size_t samples = 1;
  /// Every poison_every-th round uploads a NaN instead (0 = never).
  std::size_t poison_every = 0;
  Attack attack = Attack::kNone;
  double scale = 1.0;
  /// Local rounds [attack_from, attack_until) upload the attack.
  std::size_t attack_from = 0;
  std::size_t attack_until = 0;
};

/// Adds its fixed delta each local round and uploads what its script says.
class ScriptedClient final : public fed::FederatedClient {
 public:
  explicit ScriptedClient(const Script& script) : script_(script) {}

  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override {
    std::vector<double> out = params_;
    if (rounds_ >= script_.attack_from && rounds_ < script_.attack_until) {
      const double factor =
          script_.attack == Attack::kSignFlip ? -script_.scale
          : script_.attack == Attack::kScale  ? script_.scale
                                              : 1.0;
      for (double& p : out) p *= factor;
    }
    return out;
  }
  void run_local_round() override {
    ++rounds_;
    for (double& p : params_) p += script_.delta;
    if (script_.poison_every != 0 && rounds_ % script_.poison_every == 0)
      params_.front() = std::numeric_limits<double>::quiet_NaN();
  }
  std::size_t local_sample_count() const override { return script_.samples; }

 private:
  Script script_;
  std::size_t rounds_ = 0;
  std::vector<double> params_;
};

struct Case {
  std::vector<Script> scripts;
  std::vector<double> init;
  fed::AggregationMode mode = fed::AggregationMode::kUnweightedMean;
  fed::SamplingConfig sampling;
  std::size_t quorum = 1;
  fed::FaultInjectionConfig faults;
  double deadline_s = 0.0;
  std::size_t workers = 1;
  std::optional<fed::DefenseConfig> defense;
};

template <typename T>
T pick(util::Rng& rng, const std::vector<T>& options) {
  return options[rng.uniform_index(options.size())];
}

Case generate(std::uint64_t seed) {
  util::Rng rng(seed);
  Case c;
  const bool defended = rng.uniform() < 0.5;
  const std::size_t clients = 3 + rng.uniform_index(6);
  for (std::size_t i = 0; i < clients; ++i) {
    Script s;
    s.delta = rng.uniform(-2.0, 2.0);
    s.samples = 1 + rng.uniform_index(8);
    if (defended && rng.uniform() < 0.4) {
      // Long enough to be quarantined, short enough to earn re-admission
      // within the case's rounds.
      s.attack = rng.uniform() < 0.5 ? Attack::kSignFlip : Attack::kScale;
      s.scale = pick<double>(rng, {1.5, 3.0, 25.0});
      s.attack_from = 1 + rng.uniform_index(2);
      s.attack_until = s.attack_from + 3 + rng.uniform_index(2);
    } else {
      s.poison_every = rng.uniform() < 0.25 ? 2 + rng.uniform_index(3) : 0;
    }
    c.scripts.push_back(s);
  }
  const std::size_t params = 1 + rng.uniform_index(5);
  for (std::size_t i = 0; i < params; ++i)
    c.init.push_back(rng.uniform(-5.0, 5.0));
  c.mode = pick<fed::AggregationMode>(
      rng, {fed::AggregationMode::kUnweightedMean,
            fed::AggregationMode::kSampleWeighted,
            fed::AggregationMode::kCoordinateMedian,
            fed::AggregationMode::kTrimmedMean});
  c.sampling.fraction = pick<double>(rng, {1.0, 0.75, 0.5, 0.3});
  c.sampling.min_clients = 1 + rng.uniform_index(3);
  c.sampling.seed = rng.next_u64();
  // Aborted rounds commit no observation, so a defended case keeps its
  // quorum low enough for offenders to build a screening history.
  c.quorum = 1 + rng.uniform_index(defended ? 2 : clients);
  c.faults.drop_probability = pick<double>(rng, {0.0, 0.1, 0.25});
  c.faults.truncate_probability = pick<double>(rng, {0.0, 0.1, 0.2});
  c.faults.delay_probability = pick<double>(rng, {0.0, 0.2});
  c.faults.seed = rng.next_u64();
  // A delayed transfer adds 0.05 s; an on-time round costs ~0.004 s.
  c.deadline_s = pick<double>(rng, {0.0, 0.03});
  c.workers = pick<std::size_t>(rng, {1, 2, 4});
  if (defended) {
    fed::DefenseConfig defense;
    defense.enabled = true;
    defense.warmup_rounds = 1 + rng.uniform_index(2);
    defense.norm_min_samples = 2 + rng.uniform_index(3);
    c.defense = defense;
  }
  return c;
}

using Fleet = std::vector<std::unique_ptr<ScriptedClient>>;

Fleet make_fleet(const Case& c) {
  Fleet fleet;
  for (const Script& script : c.scripts)
    fleet.push_back(std::make_unique<ScriptedClient>(script));
  return fleet;
}

std::vector<fed::FederatedClient*> ptrs(const Fleet& fleet) {
  std::vector<fed::FederatedClient*> out;
  for (const auto& client : fleet) out.push_back(client.get());
  return out;
}

std::vector<std::uint64_t> bits(const std::vector<double>& model) {
  std::vector<std::uint64_t> out;
  for (const double v : model) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

std::vector<std::uint8_t> defense_bytes(const fed::FederatedAveraging& fed) {
  ckpt::Writer out;
  fed.defense()->save_state(out);
  return out.take();
}

/// What the generated cases exercised, so the test can insist that the
/// generator reaches every path it claims to cover.
struct Coverage {
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t dropped = 0;
  std::size_t rejected = 0;
  std::size_t stragglers = 0;
  std::size_t partial_rounds = 0;
  std::size_t screened = 0;
  std::size_t quarantined = 0;
  std::size_t readmitted = 0;
  std::size_t clipped = 0;
  std::size_t workers[5] = {};
};

void run_case(const Case& c, Coverage& coverage) {
  constexpr int kRounds = 12;
  Fleet local_fleet = make_fleet(c);
  Fleet serve_fleet = make_fleet(c);
  fed::InProcessTransport local_inner;
  fed::InProcessTransport serve_inner;
  fed::FaultInjectingTransport local_link(&local_inner, c.faults);
  fed::FaultInjectingTransport serve_link(&serve_inner, c.faults);
  fed::FederatedAveraging local(ptrs(local_fleet), &local_link, c.mode);
  ServeConfig config;
  config.workers = c.workers;
  config.aggregation = c.mode;
  ShardedServer server(serve_fleet.size(), config);
  fed::FederatedAveraging serve(ptrs(serve_fleet), &serve_link, &server);
  for (fed::FederatedAveraging* driver : {&local, &serve}) {
    if (c.defense) driver->enable_defense(*c.defense);
    driver->set_sampling(c.sampling);
    driver->set_quorum(c.quorum);
    driver->set_round_deadline(c.deadline_s);
    driver->initialize(c.init);
  }
  ++coverage.workers[c.workers];
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    std::optional<fed::RoundResult> l;
    std::optional<fed::RoundResult> s;
    try {
      l = local.run_round();
    } catch (const fed::QuorumError&) {
    }
    try {
      s = serve.run_round();
    } catch (const fed::QuorumError&) {
    }
    ASSERT_EQ(l.has_value(), s.has_value()) << "quorum divergence";
    ASSERT_EQ(bits(local.global_model()), bits(serve.global_model()));
    ASSERT_EQ(local.rounds_completed(), serve.rounds_completed());
    if (!l) {
      ++coverage.aborted;
      continue;
    }
    EXPECT_EQ(l->round, s->round);
    EXPECT_EQ(l->participants, s->participants);
    EXPECT_EQ(l->dropped, s->dropped);
    EXPECT_EQ(l->rejected, s->rejected);
    EXPECT_EQ(l->screened, s->screened);
    EXPECT_EQ(l->quarantined, s->quarantined);
    EXPECT_EQ(l->readmitted, s->readmitted);
    EXPECT_EQ(l->clipped, s->clipped);
    EXPECT_EQ(l->stragglers, s->stragglers);
    EXPECT_EQ(l->uplink_bytes, s->uplink_bytes);
    EXPECT_EQ(l->downlink_bytes, s->downlink_bytes);
    EXPECT_EQ(l->trim_count, s->trim_count);
    ++coverage.committed;
    coverage.dropped += l->dropped.size();
    coverage.rejected += l->rejected.size();
    coverage.stragglers += l->stragglers.size();
    coverage.screened += l->screened.size();
    coverage.quarantined += l->quarantined.size();
    coverage.readmitted += l->readmitted.size();
    coverage.clipped += l->clipped;
    if (l->participants.size() < c.scripts.size()) ++coverage.partial_rounds;
  }
  if (c.defense) {
    EXPECT_EQ(defense_bytes(local), defense_bytes(serve));
  }
}

TEST(CommitterParity, GeneratedCasesAgreeRoundByRound) {
  constexpr std::uint64_t kCases = 64;
  Coverage coverage;
  for (std::uint64_t k = 0; k < kCases; ++k) {
    const std::uint64_t seed = 0xC0FFEE00ULL + k;
    SCOPED_TRACE(testing::Message() << "case seed " << seed);
    run_case(generate(seed), coverage);
  }
  // The generator must actually reach every path it varies.
  EXPECT_GT(coverage.committed, 0u);
  EXPECT_GT(coverage.aborted, 0u);
  EXPECT_GT(coverage.dropped, 0u);
  EXPECT_GT(coverage.rejected, 0u);
  EXPECT_GT(coverage.stragglers, 0u);
  EXPECT_GT(coverage.partial_rounds, 0u);
  EXPECT_GT(coverage.screened, 0u);
  EXPECT_GT(coverage.quarantined, 0u);
  EXPECT_GT(coverage.readmitted, 0u);
  EXPECT_GT(coverage.clipped, 0u);
  for (const std::size_t workers : {1u, 2u, 4u})
    EXPECT_GT(coverage.workers[workers], 0u) << workers << " workers";
}

}  // namespace
}  // namespace fedpower::serve
