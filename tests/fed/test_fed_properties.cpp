// Aggregation-rule properties that must hold for any client models:
// permutation invariance, idempotence on identical inputs, bounds, and
// contraction of client disagreement under averaging.
#include <gtest/gtest.h>

#include <algorithm>

#include "fed/aggregate.hpp"
#include "util/rng.hpp"

namespace fedpower::fed {
namespace {

using Aggregator =
    std::vector<double> (*)(const std::vector<std::vector<double>>&);

std::vector<double> median_wrapper(
    const std::vector<std::vector<double>>& models) {
  return aggregate_median(models);
}

std::vector<double> trimmed_wrapper(
    const std::vector<std::vector<double>>& models) {
  return aggregate_trimmed_mean(models, models.size() >= 3 ? 1 : 0);
}

std::vector<std::vector<double>> random_models(std::size_t n,
                                                std::size_t dim,
                                                std::uint64_t seed);

// Prints as the rule's name, so the test names CTest derives from the
// parameter value are the same in every build (a bare function pointer
// would print as its address).
struct NamedRule {
  const char* name;
  Aggregator apply;

  friend void PrintTo(const NamedRule& rule, std::ostream* os) {
    *os << rule.name;
  }
};

class AggregationProperties : public ::testing::TestWithParam<NamedRule> {
 protected:
  static std::vector<std::vector<double>> make_models(std::size_t n,
                                                        std::size_t dim,
                                                        std::uint64_t seed) {
    return random_models(n, dim, seed);
  }
};

std::vector<std::vector<double>> random_models(std::size_t n,
                                               std::size_t dim,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> models(n, std::vector<double>(dim));
  for (auto& model : models)
    for (double& p : model) p = rng.uniform(-2.0, 2.0);
  return models;
}

TEST_P(AggregationProperties, PermutationInvariant) {
  auto models = AggregationProperties::make_models(5, 16, 1);
  const auto expected = GetParam().apply(models);
  util::Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    rng.shuffle(models);
    const auto permuted = GetParam().apply(models);
    ASSERT_EQ(permuted.size(), expected.size());
    // Floating-point summation is not exactly reorder-invariant; allow
    // round-off-level differences.
    for (std::size_t i = 0; i < expected.size(); ++i)
      EXPECT_NEAR(permuted[i], expected[i], 1e-12);
  }
}

TEST_P(AggregationProperties, IdenticalModelsAreFixedPoint) {
  const std::vector<double> model = {0.25, -1.5, 3.0, 0.0};
  const std::vector<std::vector<double>> models(4, model);
  const auto global = GetParam().apply(models);
  for (std::size_t i = 0; i < model.size(); ++i)
    EXPECT_NEAR(global[i], model[i], 1e-12);
}

TEST_P(AggregationProperties, ResultWithinClientEnvelope) {
  const auto models = AggregationProperties::make_models(7, 32, 3);
  const auto global = GetParam().apply(models);
  for (std::size_t i = 0; i < global.size(); ++i) {
    double lo = models[0][i];
    double hi = models[0][i];
    for (const auto& model : models) {
      lo = std::min(lo, model[i]);
      hi = std::max(hi, model[i]);
    }
    EXPECT_GE(global[i], lo - 1e-12);
    EXPECT_LE(global[i], hi + 1e-12);
  }
}

TEST_P(AggregationProperties, TranslationEquivariant) {
  // agg(models + c) == agg(models) + c, coordinate-wise.
  auto models = AggregationProperties::make_models(5, 8, 4);
  const auto base = GetParam().apply(models);
  const double shift = 0.37;
  for (auto& model : models)
    for (double& p : model) p += shift;
  const auto shifted = GetParam().apply(models);
  for (std::size_t i = 0; i < base.size(); ++i)
    EXPECT_NEAR(shifted[i], base[i] + shift, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, AggregationProperties,
    ::testing::Values(NamedRule{"mean", &average_unweighted},
                      NamedRule{"median", &median_wrapper},
                      NamedRule{"trimmed", &trimmed_wrapper}));

TEST(AveragingContraction, MeanReducesClientSpread) {
  // After replacing every model by the average, the pairwise spread is 0 —
  // more interestingly, mixing halfway towards the average halves it.
  const auto models = random_models(4, 16, 5);
  const auto global = average_unweighted(models);
  const auto spread = [](const std::vector<std::vector<double>>& ms) {
    double s = 0.0;
    for (const auto& a : ms)
      for (const auto& b : ms)
        for (std::size_t i = 0; i < a.size(); ++i)
          s += std::abs(a[i] - b[i]);
    return s;
  };
  auto mixed = models;
  for (auto& model : mixed)
    for (std::size_t i = 0; i < model.size(); ++i)
      model[i] = 0.5 * (model[i] + global[i]);
  EXPECT_NEAR(spread(mixed), 0.5 * spread(models), 1e-9);
}

}  // namespace
}  // namespace fedpower::fed
