// Streamed-mean parity: under the unweighted mean a LocalCommitter folds
// each accepted upload into a running sum at submit() instead of keeping
// a row per participant. On seeded, generated rounds it must commit
// exactly what a pooled reference commits. The reference replays the
// committer's screening order on its own DefensePipeline, keeps every
// accepted row and aggregates them with aggregate_with_mode. Round by
// round the two agree on the model bits, on the participant, dropped,
// rejected, screened, quarantined and readmitted lists, on the clip count
// and uplink bytes, and on whether the quorum held.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fed/aggregate.hpp"
#include "fed/codec.hpp"
#include "fed/defense.hpp"
#include "fed/federation.hpp"
#include "util/rng.hpp"

namespace fedpower::fed {
namespace {

/// Exact little-endian float64 payloads, so subnormal and huge doubles
/// reach the sum unrounded (float32 would flush or overflow them).
class Float64Codec final : public ModelCodec {
 public:
  std::vector<std::uint8_t> encode(
      std::span<const double> params) const override {
    std::vector<std::uint8_t> out(params.size() * sizeof(double));
    if (!params.empty()) std::memcpy(out.data(), params.data(), out.size());
    return out;
  }
  std::vector<double> decode(
      std::span<const std::uint8_t> payload) const override {
    if (payload.size() % sizeof(double) != 0)
      throw std::invalid_argument("float64 payload truncated");
    std::vector<double> out(payload.size() / sizeof(double));
    if (!out.empty()) std::memcpy(out.data(), payload.data(), payload.size());
    return out;
  }
  std::size_t payload_size(std::size_t param_count) const override {
    return param_count * sizeof(double);
  }
  std::string name() const override { return "float64"; }
};

/// An executor that runs its bodies last to first: any order is allowed,
/// so the bits must not depend on it.
void reversed_parallel_for(std::size_t n,
                           const std::function<void(std::size_t)>& body) {
  for (std::size_t i = n; i > 0; --i) body(i - 1);
}

/// The pooled path: every accepted row is kept and aggregated at commit.
class PooledReference {
 public:
  PooledReference(std::size_t clients, const ModelCodec& codec,
                  const std::optional<DefenseConfig>& defense)
      : codec_(codec) {
    if (defense) defense_.emplace(*defense, clients);
  }

  void initialize(std::vector<double> global) { global_ = std::move(global); }
  const std::vector<double>& global_model() const { return global_; }

  /// nullopt when the quorum failed (global model and reputations then
  /// stay as they were).
  std::optional<RoundResult> round(
      const std::vector<std::size_t>& participants,
      const std::vector<std::optional<std::vector<std::uint8_t>>>& uploads,
      std::size_t quorum, const util::ParallelFor& executor) {
    RoundResult result;
    result.participants = participants;
    for (const std::size_t i : participants)
      if (defense_ && defense_->quarantined(i)) result.quarantined.push_back(i);
    std::vector<std::vector<double>> rows;
    std::vector<ScreenObservation> observations;
    for (const std::size_t i : participants) {
      if (!uploads[i]) {
        result.dropped.push_back(i);
        continue;
      }
      std::vector<double> local;
      try {
        local = codec_.decode(*uploads[i]);
      } catch (const std::invalid_argument&) {
        result.dropped.push_back(i);
        continue;
      }
      if (local.size() != global_.size()) {
        result.dropped.push_back(i);
        continue;
      }
      if (any_non_finite(local)) {
        result.rejected.push_back(i);
        if (defense_) observations.push_back(defense_->non_finite(i));
        continue;
      }
      result.uplink_bytes += uploads[i]->size();
      if (defense_) {
        const bool quarantined = defense_->quarantined(i);
        const ScreenObservation obs = defense_->screen(i, local, global_);
        observations.push_back(obs);
        const bool clean = obs.verdict == ScreenVerdict::kAccepted ||
                           obs.verdict == ScreenVerdict::kClipped;
        if (!clean && !quarantined) result.screened.push_back(i);
        if (!clean || quarantined) continue;
      }
      rows.push_back(std::move(local));
    }
    const std::size_t eligible =
        participants.size() - result.quarantined.size();
    const std::size_t required =
        std::max<std::size_t>(1, std::min(quorum, eligible));
    if (rows.size() < required) return std::nullopt;
    global_ = aggregate_with_mode(AggregationMode::kUnweightedMean, rows, {},
                                  executor, result.trim_count);
    if (defense_) {
      const DefenseRoundLog log = defense_->commit_round(observations);
      result.readmitted = log.readmitted;
      result.clipped = log.clipped;
    }
    return result;
  }

 private:
  const ModelCodec& codec_;
  std::optional<DefensePipeline> defense_;
  std::vector<double> global_;
};

/// What a client sends in one round.
enum class Upload {
  kHonest,     ///< the global model plus a small delta
  kSpecial,    ///< ±0.0, subnormal and huge coordinates
  kNegZero,    ///< every coordinate -0.0: the mean must read +0.0
  kFlipped,    ///< sign-flipped: the cosine screen rejects it
  kOversized,  ///< a large update: clipped or norm-rejected
  kNan,        ///< one NaN coordinate: rejected
  kTruncated,  ///< one byte short: the codec rejects it (a dropout)
  kWrongShape, ///< one coordinate too many (a dropout)
  kMissing,    ///< never submitted (a dropout)
};

struct Case {
  std::size_t clients = 0;
  std::size_t params = 0;
  bool float64 = false;
  bool defense = false;
  bool executor = false;
};

Case generate(util::Rng& rng) {
  Case c;
  c.clients = 3 + rng.uniform_index(10);
  const std::size_t dims[] = {1, 7, 129, 300, 2000};
  c.params = dims[rng.uniform_index(5)];
  c.float64 = rng.bernoulli(0.5);
  c.defense = rng.bernoulli(0.5);
  c.executor = rng.bernoulli(0.5);
  return c;
}

Upload draw_upload(util::Rng& rng, bool defense) {
  const double u = rng.uniform();
  if (u < (defense ? 0.45 : 0.35)) return Upload::kHonest;
  if (u < 0.55) return defense ? Upload::kFlipped : Upload::kSpecial;
  if (u < 0.62) return Upload::kOversized;
  if (u < 0.68) return Upload::kNegZero;
  if (u < 0.76) return Upload::kNan;
  if (u < 0.82) return Upload::kTruncated;
  if (u < 0.88) return Upload::kWrongShape;
  if (u < 0.94) return Upload::kSpecial;
  return Upload::kMissing;
}

double special_value(util::Rng& rng, bool float64) {
  if (float64) {
    const double values[] = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             1e-310,
                             1e300,
                             -1e300,
                             std::numeric_limits<double>::max() / 16};
    return values[rng.uniform_index(8)];
  }
  const double values[] = {0.0,
                           -0.0,
                           std::numeric_limits<float>::denorm_min(),
                           -std::numeric_limits<float>::denorm_min(),
                           1e-40,
                           3e38,
                           -3e38};
  return values[rng.uniform_index(7)];
}

std::optional<std::vector<std::uint8_t>> make_upload(
    Upload kind, util::Rng& rng, const std::vector<double>& global,
    const ModelCodec& codec, bool float64) {
  if (kind == Upload::kMissing) return std::nullopt;
  std::vector<double> model = global;
  const double step = 1e-3 * (1.0 + rng.uniform());
  for (double& p : model) {
    switch (kind) {
      case Upload::kSpecial:
        p = special_value(rng, float64);
        break;
      case Upload::kNegZero:
        p = -0.0;
        break;
      case Upload::kFlipped:
        p = -2.0 * p - step;
        break;
      case Upload::kOversized:
        p += 40.0 * step * (rng.bernoulli(0.5) ? 1.0 : -1.0);
        break;
      default:
        p += step * rng.uniform(-1.0, 1.0);
        break;
    }
  }
  if (kind == Upload::kNan)
    model[rng.uniform_index(model.size())] =
        std::numeric_limits<double>::quiet_NaN();
  if (kind == Upload::kWrongShape) model.push_back(0.5);
  std::vector<std::uint8_t> payload = codec.encode(model);
  if (kind == Upload::kTruncated) payload.pop_back();
  return payload;
}

std::vector<std::uint64_t> bits(const std::vector<double>& model) {
  std::vector<std::uint64_t> out;
  out.reserve(model.size());
  for (const double v : model) out.push_back(std::bit_cast<std::uint64_t>(v));
  return out;
}

/// What the generated rounds reached, so the test can insist that every
/// path it claims to cover was taken.
struct Coverage {
  std::size_t committed = 0;
  std::size_t aborted = 0;
  std::size_t retried = 0;
  std::size_t dropped = 0;
  std::size_t rejected = 0;
  std::size_t screened = 0;
  std::size_t quarantined = 0;
  std::size_t clipped = 0;
  std::size_t executor_rounds = 0;
  std::size_t serial_rounds = 0;
};

void expect_same(const RoundResult& streamed, const RoundResult& pooled) {
  EXPECT_EQ(streamed.participants, pooled.participants);
  EXPECT_EQ(streamed.dropped, pooled.dropped);
  EXPECT_EQ(streamed.rejected, pooled.rejected);
  EXPECT_EQ(streamed.screened, pooled.screened);
  EXPECT_EQ(streamed.quarantined, pooled.quarantined);
  EXPECT_EQ(streamed.readmitted, pooled.readmitted);
  EXPECT_EQ(streamed.clipped, pooled.clipped);
  EXPECT_EQ(streamed.uplink_bytes, pooled.uplink_bytes);
  EXPECT_EQ(streamed.trim_count, pooled.trim_count);
}

void run_case(const Case& c, util::Rng& rng, Coverage& coverage) {
  static const Float64Codec float64_codec;
  const ModelCodec& codec =
      c.float64 ? static_cast<const ModelCodec&>(float64_codec)
                : Float32Codec::instance();
  std::optional<DefenseConfig> defense;
  if (c.defense) {
    DefenseConfig config;
    config.enabled = true;
    config.warmup_rounds = 1;
    config.norm_min_samples = 2;
    config.fail_penalty = 0.3;
    config.probation_rounds = 2;
    defense = config;
  }
  const util::ParallelFor executor =
      c.executor ? util::ParallelFor(reversed_parallel_for)
                 : util::ParallelFor{};

  LocalCommitter streamed(c.clients, AggregationMode::kUnweightedMean,
                          &codec);
  if (defense) streamed.enable_defense(*defense);
  streamed.set_executor(executor);
  PooledReference pooled(c.clients, codec, defense);
  std::vector<double> init(c.params);
  for (double& p : init) p = rng.uniform(-1.0, 1.0);
  streamed.initialize(init);
  pooled.initialize(init);

  // A round that aborted is retried at once by the same participants, all
  // honest, with a quorum of one.
  bool retry = false;
  std::vector<std::size_t> participants;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round
                                    << (retry ? " (retry)" : ""));
    if (!retry) {
      participants.clear();
      for (std::size_t i = 0; i < c.clients; ++i)
        if (rng.bernoulli(0.8)) participants.push_back(i);
      if (participants.empty()) participants.push_back(0);
    }
    const std::size_t quorum =
        retry ? 1 : 1 + rng.uniform_index(participants.size() + 1);
    const std::vector<double>& global = streamed.global_model();
    std::vector<std::optional<std::vector<std::uint8_t>>> uploads(c.clients);
    for (const std::size_t i : participants) {
      const Upload kind = retry ? Upload::kHonest : draw_upload(rng, c.defense);
      uploads[i] = make_upload(kind, rng, global, codec, c.float64);
    }

    streamed.begin_round(participants);
    for (const std::size_t i : participants)
      if (uploads[i])
        streamed.submit(i, 0, *uploads[i],
                        static_cast<double>(1 + i % 3));
    std::optional<RoundResult> s;
    try {
      s = streamed.commit_round(quorum);
    } catch (const QuorumError&) {
    }
    const std::optional<RoundResult> p =
        pooled.round(participants, uploads, quorum, executor);

    ASSERT_EQ(s.has_value(), p.has_value()) << "quorum divergence";
    ASSERT_EQ(bits(streamed.global_model()), bits(pooled.global_model()));
    (c.executor ? coverage.executor_rounds : coverage.serial_rounds) += 1;
    if (!s) {
      // A retry can abort too (every participant quarantined, or honest
      // uploads screened against a degenerate global); then draw afresh.
      ++coverage.aborted;
      retry = !retry;
      continue;
    }
    expect_same(*s, *p);
    coverage.retried += retry ? 1 : 0;
    retry = false;
    ++coverage.committed;
    coverage.dropped += s->dropped.size();
    coverage.rejected += s->rejected.size();
    coverage.screened += s->screened.size();
    coverage.quarantined += s->quarantined.size();
    coverage.clipped += s->clipped;
  }
}

TEST(StreamedMean, CommitsWhatThePooledMeanCommits) {
  constexpr std::uint64_t kCases = 96;
  Coverage coverage;
  for (std::uint64_t k = 0; k < kCases; ++k) {
    const std::uint64_t seed = 0x5EA11ULL + k;
    SCOPED_TRACE(testing::Message() << "case seed " << seed);
    util::Rng rng(seed);
    run_case(generate(rng), rng, coverage);
  }
  EXPECT_GT(coverage.committed, 0u);
  EXPECT_GT(coverage.aborted, 0u);
  EXPECT_GT(coverage.retried, 0u);
  EXPECT_GT(coverage.dropped, 0u);
  EXPECT_GT(coverage.rejected, 0u);
  EXPECT_GT(coverage.screened, 0u);
  EXPECT_GT(coverage.quarantined, 0u);
  EXPECT_GT(coverage.clipped, 0u);
  EXPECT_GT(coverage.executor_rounds, 0u);
  EXPECT_GT(coverage.serial_rounds, 0u);
}

}  // namespace
}  // namespace fedpower::fed
