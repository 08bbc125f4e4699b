#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

namespace fedpower::util {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i)
    if (a.next_u64() != b.next_u64()) ++differing;
  EXPECT_GT(differing, 12);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 4.0);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 4.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(5);
  std::array<int, 7> counts{};
  for (int i = 0; i < 7000; ++i) ++counts[rng.uniform_index(7)];
  for (const int c : counts) EXPECT_GT(c, 700);  // ~1000 expected each
}

TEST(Rng, UniformIndexUnbiased) {
  // With n = 3 a naive modulo approach would bias low indices; Lemire's
  // method must keep all bins within a few sigma of uniform.
  Rng rng(13);
  std::array<int, 3> counts{};
  const int draws = 90000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(3)];
  for (const int c : counts) EXPECT_NEAR(c, draws / 3, 600);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(17);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int x = rng.uniform_int(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= (x == -3);
    saw_hi |= (x == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleValue) {
  Rng rng(19);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(23);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, NormalScaledMoments) {
  Rng rng(29);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(3.0, 0.5);
  EXPECT_NEAR(sum / n, 3.0, 0.01);
}

TEST(Rng, NormalZeroStddevIsDeterministic) {
  Rng rng(31);
  EXPECT_DOUBLE_EQ(rng.normal(1.5, 0.0), 1.5);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(37);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(41);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, CategoricalFollowsWeights) {
  Rng rng(43);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::array<int, 3> counts{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.01);
}

TEST(Rng, CategoricalSkipsZeroWeights) {
  Rng rng(47);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.categorical(weights), 1u);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(53);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(59);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[static_cast<std::size_t>(i)] = i;
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(61);
  Rng child = parent.split();
  // The child stream must differ from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 16; ++i)
    if (parent.next_u64() == child.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~0ULL);
}

TEST(Rng, StateRoundTripResumesGoldenSequence) {
  // Checkpoint contract: capturing state() mid-stream and restoring it into
  // a fresh generator must reproduce the continuation draw-for-draw across
  // every distribution (normal() caches no spare, so the four state words
  // are the complete generator state).
  Rng original(977);
  for (int i = 0; i < 100; ++i) (void)original.next_u64();
  const auto saved = original.state();

  Rng restored(1);  // deliberately different seed; state replaces it
  restored.set_state(saved);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(original.next_u64(), restored.next_u64());
    EXPECT_DOUBLE_EQ(original.uniform(), restored.uniform());
    EXPECT_DOUBLE_EQ(original.normal(), restored.normal());
    EXPECT_EQ(original.uniform_index(17), restored.uniform_index(17));
  }
  // Children split after restore continue the same derivation sequence.
  Rng child_a = original.split();
  Rng child_b = restored.split();
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(child_a.next_u64(), child_b.next_u64());
}

TEST(Rng, SkipNormalsLeavesTheStateOfNormalDraws) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 2026ULL, 0xdeadbeefULL}) {
    for (const std::size_t n : {0u, 1u, 2u, 160u, 480u, 640u, 4321u}) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " n " << n);
      Rng drawn(seed);
      Rng skipped(seed);
      for (std::size_t i = 0; i < n; ++i) (void)drawn.normal();
      skipped.skip_normals(n);
      EXPECT_EQ(skipped.state(), drawn.state());
      EXPECT_EQ(skipped.normal(), drawn.normal());
    }
  }
}

TEST(Rng, SkipNormalsRedrawsAZeroUniformAsNormalDoes) {
  // With state[0] = 0 the next output is rotl(state[3], 23): this state
  // makes the first uniform() exactly 0, which normal() must redraw
  // before its log, and skip_normals must redraw too.
  constexpr std::uint64_t kOutput = 5;  // >> 11 is 0: uniform() == 0.0
  const std::array<std::uint64_t, 4> state{0, 1, 2,
                                           (kOutput << 41) | (kOutput >> 23)};
  Rng probe(1);
  probe.set_state(state);
  ASSERT_EQ(probe.uniform(), 0.0);

  Rng drawn(1);
  drawn.set_state(state);
  Rng skipped(1);
  skipped.set_state(state);
  Rng two_uniforms(1);
  two_uniforms.set_state(state);
  const double value = drawn.normal();
  EXPECT_TRUE(std::isfinite(value));
  skipped.skip_normals(1);
  (void)two_uniforms.next_u64();
  (void)two_uniforms.next_u64();
  EXPECT_EQ(skipped.state(), drawn.state());
  EXPECT_NE(skipped.state(), two_uniforms.state());  // the retry happened

  // Past more than one normal: the redraw shifts every later pair by one
  // draw, and the skip must follow.
  for (const std::size_t n : {2u, 3u, 687u}) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    Rng many_drawn(1);
    many_drawn.set_state(state);
    Rng many_skipped(1);
    many_skipped.set_state(state);
    for (std::size_t i = 0; i < n; ++i) (void)many_drawn.normal();
    many_skipped.skip_normals(n);
    EXPECT_EQ(many_skipped.state(), many_drawn.state());
    EXPECT_EQ(many_skipped.normal(), many_drawn.normal());
  }
}

TEST(Splitmix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 123;
  std::uint64_t s2 = 123;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

}  // namespace
}  // namespace fedpower::util
