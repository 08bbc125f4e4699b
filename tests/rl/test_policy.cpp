#include "rl/policy.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace fedpower::rl {
namespace {

TEST(Softmax, SumsToOne) {
  const std::vector<double> values = {0.1, 0.5, -0.3, 2.0};
  const auto probs = softmax(values, 0.9);
  double total = 0.0;
  for (const double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Softmax, EqualValuesGiveUniform) {
  const std::vector<double> values(5, 0.3);
  const auto probs = softmax(values, 0.5);
  for (const double p : probs) EXPECT_NEAR(p, 0.2, 1e-12);
}

TEST(Softmax, HighTemperatureApproachesUniform) {
  const std::vector<double> values = {0.0, 1.0};
  const auto probs = softmax(values, 100.0);
  EXPECT_NEAR(probs[0], 0.5, 0.01);
}

TEST(Softmax, LowTemperatureApproachesArgmax) {
  const std::vector<double> values = {0.0, 1.0, 0.5};
  const auto probs = softmax(values, 0.01);
  EXPECT_GT(probs[1], 0.999);
}

TEST(Softmax, NumericallyStableForLargeValues) {
  const std::vector<double> values = {1000.0, 1001.0};
  const auto probs = softmax(values, 1.0);
  EXPECT_FALSE(std::isnan(probs[0]));
  EXPECT_NEAR(probs[1] / probs[0], std::exp(1.0), 1e-9);
}

TEST(Softmax, KnownTwoActionDistribution) {
  const std::vector<double> values = {0.0, 1.0};
  const auto probs = softmax(values, 1.0);
  const double expected = 1.0 / (1.0 + std::exp(-1.0));
  EXPECT_NEAR(probs[1], expected, 1e-12);
}

TEST(Softmax, TemperatureMatchesPaperEquation3) {
  // pi(a|s) = exp(mu_a / tau) / sum exp(mu_a' / tau)
  const std::vector<double> mu = {0.2, 0.8, -0.1};
  const double tau = 0.35;
  const auto probs = softmax(mu, tau);
  double denom = 0.0;
  for (const double m : mu) denom += std::exp(m / tau);
  for (std::size_t i = 0; i < mu.size(); ++i)
    EXPECT_NEAR(probs[i], std::exp(mu[i] / tau) / denom, 1e-12);
}

TEST(SampleSoftmax, RespectsDistribution) {
  const std::vector<double> values = {0.0, 1.0};
  util::Rng rng(1);
  std::vector<double> probs;
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (sample_softmax(values, 1.0, rng, probs) == 1) ++ones;
  const double expected = 1.0 / (1.0 + std::exp(-1.0));
  EXPECT_NEAR(static_cast<double>(ones) / n, expected, 0.02);
}

TEST(Argmax, FindsLargest) {
  EXPECT_EQ(argmax(std::vector<double>{1.0, 3.0, 2.0}), 1u);
}

TEST(Argmax, FirstOnTies) {
  EXPECT_EQ(argmax(std::vector<double>{2.0, 2.0, 1.0}), 0u);
}

TEST(Argmax, SingleElement) {
  EXPECT_EQ(argmax(std::vector<double>{-5.0}), 0u);
}

TEST(EpsilonGreedy, ZeroEpsilonIsGreedy) {
  util::Rng rng(2);
  const std::vector<double> values = {0.0, 5.0, 1.0};
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(epsilon_greedy(values, 0.0, rng), 1u);
}

TEST(EpsilonGreedy, FullEpsilonIsUniform) {
  util::Rng rng(3);
  const std::vector<double> values = {0.0, 5.0, 1.0};
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[epsilon_greedy(values, 1.0, rng)];
  for (const int c : counts) EXPECT_NEAR(c, n / 3, 500);
}

TEST(EpsilonGreedy, IntermediateEpsilonMix) {
  util::Rng rng(4);
  const std::vector<double> values = {0.0, 5.0};
  int greedy_hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (epsilon_greedy(values, 0.2, rng) == 1) ++greedy_hits;
  // P(best) = 0.8 + 0.2*0.5 = 0.9.
  EXPECT_NEAR(static_cast<double>(greedy_hits) / n, 0.9, 0.01);
}

TEST(Entropy, UniformIsLogN) {
  const std::vector<double> probs(4, 0.25);
  EXPECT_NEAR(entropy(probs), std::log(4.0), 1e-12);
}

TEST(Entropy, DeterministicIsZero) {
  EXPECT_DOUBLE_EQ(entropy(std::vector<double>{1.0, 0.0, 0.0}), 0.0);
}

TEST(Entropy, DecreasesAsTemperatureDecays) {
  // The paper's exploration story: entropy of the softmax policy must fall
  // monotonically as tau decays from tau_max to tau_min.
  const std::vector<double> mu = {0.2, 0.5, 0.35, 0.1, 0.6};
  double previous = 1e9;
  for (const double tau : {0.9, 0.5, 0.25, 0.1, 0.05, 0.01}) {
    const double h = entropy(softmax(mu, tau));
    EXPECT_LT(h, previous);
    previous = h;
  }
}

}  // namespace
}  // namespace fedpower::rl
