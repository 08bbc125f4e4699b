// The workspace-free single-row forward against the batch forward, bit for
// bit. Mlp::forward_row(x) must equal forward() of the one-row matrix x on
// every input, the cases the batch kernels treat specially included: the
// exactly-zero inputs they skip (+0.0 and -0.0, so a zero times an
// infinite weight never becomes a NaN), NaN inputs they must not skip,
// denormals, and weights that are infinite or NaN. NaN results must carry
// the same sign and payload too, which holds because the row path runs
// the batch path's own row kernels (an independently written loop may add
// its operands the other way round and propagate the other NaN).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace fedpower::nn {
namespace {

using L = std::numeric_limits<double>;

struct Shape {
  std::size_t input;
  std::vector<std::size_t> hidden;
  std::size_t output;
};

std::string describe(const Shape& shape) {
  std::string text = std::to_string(shape.input);
  for (const std::size_t h : shape.hidden) text += "->" + std::to_string(h);
  return text + "->" + std::to_string(shape.output);
}

bool bitwise_equal(std::span<const double> x, std::span<const double> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// A value that is ordinary most of the time and otherwise one of the
/// values the kernels treat specially.
double draw(util::Rng& rng, double special_rate,
            const std::vector<double>& specials) {
  if (rng.uniform() < special_rate)
    return specials[static_cast<std::size_t>(
        rng.uniform_index(specials.size()))];
  return rng.uniform(-1.5, 1.5);
}

const std::vector<double> kInputSpecials = {
    0.0, -0.0, L::quiet_NaN(), L::denorm_min(), -L::denorm_min(),
    L::min() / 4.0, 1e300};
const std::vector<double> kWeightSpecials = {
    L::infinity(), -L::infinity(), L::quiet_NaN(), 0.0, -0.0,
    L::denorm_min()};

/// forward_row(x) and forward() of the one-row matrix x, compared.
void expect_row_matches_batch(Mlp& model, const std::vector<double>& x,
                              std::size_t output, const std::string& what) {
  std::vector<double> row(output, 7.0);
  model.forward_row(x, row);
  Matrix batch(1, x.size());
  std::copy(x.begin(), x.end(), batch.data().begin());
  const Matrix& full = model.forward(batch);
  EXPECT_TRUE(bitwise_equal(row, full.data())) << what;
}

TEST(ForwardRow, MatchesTheBatchForwardBitwiseOnGeneratedCases) {
  util::Rng rng(0xf0a7d);
  const std::vector<Shape> fixed = {
      {5, {32}, 15},      // Table I
      {5, {}, 15},        // linear
      {5, {16, 12}, 15},  // two hidden layers
  };
  std::size_t cases = 0;
  std::size_t non_finite_outputs = 0;
  for (int trial = 0; trial < 240; ++trial) {
    Shape shape = fixed[static_cast<std::size_t>(trial) % fixed.size()];
    if (trial >= 120) {  // random shapes, chunk-spanning inputs included
      shape.input = 1 + static_cast<std::size_t>(rng.uniform_index(80));
      shape.hidden.assign(static_cast<std::size_t>(rng.uniform_index(3)), 0);
      for (std::size_t& h : shape.hidden)
        h = 1 + static_cast<std::size_t>(rng.uniform_index(40));
      shape.output = 1 + static_cast<std::size_t>(rng.uniform_index(20));
    }
    Mlp model = make_mlp(shape.input, shape.hidden, shape.output, rng);
    // A third of the models carry infinite and NaN weights.
    const double weight_specials = trial % 3 == 0 ? 0.05 : 0.0;
    std::vector<double> params = model.parameters();
    for (double& p : params) p = draw(rng, weight_specials, kWeightSpecials);
    model.set_parameters(params);
    for (int input = 0; input < 8; ++input) {
      std::vector<double> x(shape.input);
      const double input_specials = input == 0 ? 1.0 : 0.3;
      for (double& v : x) v = draw(rng, input_specials, kInputSpecials);
      std::vector<double> row(shape.output);
      model.forward_row(x, row);
      for (const double v : row) non_finite_outputs += std::isfinite(v) ? 0 : 1;
      expect_row_matches_batch(model, x, shape.output,
                               describe(shape) + " trial " +
                                   std::to_string(trial) + " input " +
                                   std::to_string(input));
      ++cases;
    }
  }
  EXPECT_EQ(cases, 240u * 8u);
  EXPECT_GT(non_finite_outputs, 0u);  // the special values were reached
}

TEST(ForwardRow, ZeroInputsSkipAnInfiniteWeight) {
  // Both zeros are skipped, so 0 * inf adds no NaN; a NaN input is not.
  util::Rng rng(3);
  Mlp model = make_mlp(2, {}, 2, rng);
  model.set_parameters(
      std::vector<double>{L::infinity(), 1.0, -L::infinity(), 2.0, 0.5, -0.5});
  for (const std::vector<double>& x :
       {std::vector<double>{0.0, -0.0}, std::vector<double>{-0.0, 1.0},
        std::vector<double>{L::quiet_NaN(), 0.0}})
    expect_row_matches_batch(model, x, 2, "2->2");
  std::vector<double> out(2);
  model.forward_row(std::vector<double>{0.0, -0.0}, out);
  EXPECT_EQ(out, (std::vector<double>{0.5, -0.5}));
}

TEST(ForwardRow, TanhLayersMatchTheBatchForwardBitwise) {
  util::Rng rng(11);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Dense>(4, 6, Init::kHe, rng));
  layers.push_back(std::make_unique<Tanh>());
  layers.push_back(std::make_unique<Dense>(6, 3, Init::kHe, rng));
  Mlp model(std::move(layers));
  for (int input = 0; input < 16; ++input) {
    std::vector<double> x(4);
    for (double& v : x) v = draw(rng, 0.3, kInputSpecials);
    expect_row_matches_batch(model, x, 3, "tanh " + std::to_string(input));
  }
}

TEST(ForwardRowDeathTest, RejectsAnOutputOfTheWrongWidth) {
  util::Rng rng(5);
  const Mlp model = make_mlp(3, {4}, 2, rng);
  std::vector<double> out(3);
  EXPECT_DEATH(model.forward_row(std::vector<double>{1.0, 2.0, 3.0}, out),
               "precondition");
}

}  // namespace
}  // namespace fedpower::nn
