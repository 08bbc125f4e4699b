// Generated committer parity: the round driver over a LocalCommitter and
// over a deterministic ShardedServer must agree round by round on seeded,
// generated configurations, not only on the hand-picked ones in
// test_serve_federation.cpp. Each case draws the aggregation rule (mean,
// sample-weighted, median, trimmed with and without an override), the
// sampling fraction and floor, the quorum, the fault injector's drop,
// truncate and delay rates and seed, the round deadline, the serve worker
// count and a scripted fleet that sometimes uploads non-finite models.
// Every round either both runs commit or both throw QuorumError; when they
// commit they agree on the model bits, the participant and exclusion lists
// and the byte counts.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "fed/fault_injection.hpp"
#include "fed/federation.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace fedpower::serve {
namespace {

/// Adds its fixed delta each local round; when `poison_every` is set,
/// every poison_every-th round it uploads a NaN instead.
class ScriptedClient final : public fed::FederatedClient {
 public:
  ScriptedClient(double delta, std::size_t samples, std::size_t poison_every)
      : delta_(delta), samples_(samples), poison_every_(poison_every) {}

  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {
    ++rounds_;
    for (double& p : params_) p += delta_;
    if (poison_every_ != 0 && rounds_ % poison_every_ == 0)
      params_.front() = std::numeric_limits<double>::quiet_NaN();
  }
  std::size_t local_sample_count() const override { return samples_; }

 private:
  double delta_;
  std::size_t samples_;
  std::size_t poison_every_;
  std::size_t rounds_ = 0;
  std::vector<double> params_;
};

struct Case {
  std::vector<double> deltas;
  std::vector<std::size_t> samples;
  std::vector<std::size_t> poison_every;
  std::vector<double> init;
  fed::AggregationMode mode = fed::AggregationMode::kUnweightedMean;
  std::optional<std::size_t> trim_override;
  fed::SamplingConfig sampling;
  std::size_t quorum = 1;
  fed::FaultInjectionConfig faults;
  double deadline_s = 0.0;
  std::size_t workers = 1;
};

template <typename T>
T pick(util::Rng& rng, const std::vector<T>& options) {
  return options[rng.uniform_index(options.size())];
}

Case generate(std::uint64_t seed) {
  util::Rng rng(seed);
  Case c;
  const std::size_t clients = 3 + rng.uniform_index(6);
  for (std::size_t i = 0; i < clients; ++i) {
    c.deltas.push_back(rng.uniform(-2.0, 2.0));
    c.samples.push_back(1 + rng.uniform_index(8));
    c.poison_every.push_back(rng.uniform() < 0.25 ? 2 + rng.uniform_index(3)
                                                  : 0);
  }
  const std::size_t params = 1 + rng.uniform_index(5);
  for (std::size_t i = 0; i < params; ++i)
    c.init.push_back(rng.uniform(-5.0, 5.0));
  switch (rng.uniform_index(5)) {
    case 0:
      c.mode = fed::AggregationMode::kUnweightedMean;
      break;
    case 1:
      c.mode = fed::AggregationMode::kSampleWeighted;
      break;
    case 2:
      c.mode = fed::AggregationMode::kCoordinateMedian;
      break;
    case 3:
      c.mode = fed::AggregationMode::kTrimmedMean;
      break;
    default:
      c.mode = fed::AggregationMode::kTrimmedMean;
      c.trim_override = rng.uniform_index(3);
      break;
  }
  c.sampling.fraction = pick<double>(rng, {1.0, 0.75, 0.5, 0.3});
  c.sampling.min_clients = 1 + rng.uniform_index(3);
  c.sampling.seed = rng.next_u64();
  c.quorum = 1 + rng.uniform_index(clients);
  c.faults.drop_probability = pick<double>(rng, {0.0, 0.1, 0.25});
  c.faults.truncate_probability = pick<double>(rng, {0.0, 0.1, 0.2});
  c.faults.delay_probability = pick<double>(rng, {0.0, 0.2});
  c.faults.seed = rng.next_u64();
  // A delayed transfer adds 0.05 s; an on-time round costs ~0.004 s.
  c.deadline_s = pick<double>(rng, {0.0, 0.03});
  c.workers = pick<std::size_t>(rng, {1, 4});
  return c;
}

using Fleet = std::vector<std::unique_ptr<ScriptedClient>>;

Fleet make_fleet(const Case& c) {
  Fleet fleet;
  for (std::size_t i = 0; i < c.deltas.size(); ++i)
    fleet.push_back(std::make_unique<ScriptedClient>(
        c.deltas[i], c.samples[i], c.poison_every[i]));
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

/// What the generated cases exercised, so the test can insist that the
/// generator reaches every path it claims to cover.
struct Coverage {
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t dropped = 0;
  std::size_t rejected = 0;
  std::size_t stragglers = 0;
  std::size_t partial_rounds = 0;
};

void run_case(const Case& c, Coverage& coverage) {
  constexpr int kRounds = 6;
  Fleet local_fleet = make_fleet(c);
  Fleet serve_fleet = make_fleet(c);
  fed::InProcessTransport local_inner;
  fed::InProcessTransport serve_inner;
  fed::FaultInjectingTransport local_link(&local_inner, c.faults);
  fed::FaultInjectingTransport serve_link(&serve_inner, c.faults);
  fed::FederatedAveraging local(ptrs(local_fleet), &local_link, c.mode);
  if (c.trim_override) local.set_trim_count(*c.trim_override);
  ServeConfig config;
  config.workers = c.workers;
  config.aggregation = c.mode;
  config.trim_override = c.trim_override;
  ShardedServer server(serve_fleet.size(), config);
  fed::FederatedAveraging serve(ptrs(serve_fleet), &serve_link, &server);
  for (fed::FederatedAveraging* driver : {&local, &serve}) {
    driver->set_sampling(c.sampling);
    driver->set_quorum(c.quorum);
    driver->set_round_deadline(c.deadline_s);
    driver->initialize(c.init);
  }
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
    EXPECT_EQ(l->stragglers, s->stragglers);
    EXPECT_EQ(l->uplink_bytes, s->uplink_bytes);
    EXPECT_EQ(l->downlink_bytes, s->downlink_bytes);
    EXPECT_EQ(l->trim_count, s->trim_count);
    EXPECT_EQ(l->trim_clamped, s->trim_clamped);
    ++coverage.committed;
    coverage.dropped += l->dropped.size();
    coverage.rejected += l->rejected.size();
    coverage.stragglers += l->stragglers.size();
    if (l->participants.size() < c.deltas.size()) ++coverage.partial_rounds;
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
}

}  // namespace
}  // namespace fedpower::serve
