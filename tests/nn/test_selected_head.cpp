// The selected-column training path against the full one, bit for bit.
// Mlp::forward_selected must return exactly forward()(r, cols[r]), and
// Mlp::backward_selected must leave exactly the parameter gradients that
// backward() leaves for the one-hot gradient holding grad[r] at
// (r, cols[r]). The generated cases stress what the selected kernels
// handle differently from the matmul kernels: batches that do and do not
// fill the interleaved row blocks, repeated columns (several rows adding
// into one dW column), exactly-zero loss derivatives, dead-ReLU rows and
// ±0.0 inputs, gradients accumulated on top of earlier ones, and weights
// that are no longer finite.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace fedpower::nn {
namespace {

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

enum class Columns { kCycling, kRepeated, kRandom };

bool bitwise_equal(const std::vector<double>& x,
                   const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// A model of the given shape with every parameter drawn, and the first
/// layer's biases negative: an input row of zeros then leaves every hidden
/// unit dead, and other rows leave some dead.
Mlp make_model(const Shape& shape, util::Rng& rng) {
  Mlp model = make_mlp(shape.input, shape.hidden, shape.output, rng);
  std::vector<double> params = model.parameters();
  for (double& p : params) p = rng.uniform(-1.0, 1.0);
  const std::size_t first_out =
      shape.hidden.empty() ? shape.output : shape.hidden.front();
  const std::size_t bias_at = shape.input * first_out;
  for (std::size_t i = 0; i < first_out; ++i)
    params[bias_at + i] = rng.uniform(-0.5, -0.01);
  model.set_parameters(params);
  return model;
}

/// Rows cycle through dense, all-±0.0 (dead after the first layer), mixed
/// ±0.0 and denormal entries.
Matrix make_input(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix x(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      double v = rng.uniform(-1.0, 1.0);
      switch (r % 4) {
        case 1:
          v = c % 2 == 0 ? 0.0 : -0.0;
          break;
        case 2:
          if (c % 2 == 0) v = c % 4 == 0 ? 0.0 : -0.0;
          break;
        case 3:
          if (c == 0) v = std::numeric_limits<double>::denorm_min();
          break;
        default:
          break;
      }
      x(r, c) = v;
    }
  return x;
}

std::vector<std::size_t> make_columns(std::size_t rows, std::size_t out,
                                      Columns kind, util::Rng& rng) {
  std::vector<std::size_t> cols(rows);
  for (std::size_t r = 0; r < rows; ++r) switch (kind) {
      case Columns::kCycling:
        cols[r] = r % out;  // all distinct within every run of `out` rows
        break;
      case Columns::kRepeated:
        cols[r] = out - 1;
        break;
      case Columns::kRandom:
        cols[r] = rng.uniform_index(out);
        break;
    }
  return cols;
}

/// Loss derivatives, with exact +0.0 and -0.0 rows among them.
std::vector<double> make_grad(std::size_t rows, util::Rng& rng) {
  std::vector<double> grad(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    grad[r] = rng.uniform(-1.0, 1.0);
    if (r % 5 == 1) grad[r] = 0.0;
    if (r % 5 == 3) grad[r] = -0.0;
  }
  return grad;
}

/// One training pass on each model: the full forward and a one-hot
/// backward on `full`, the selected path on `selected`. Expects the head
/// values and the accumulated gradients to agree bit for bit.
void expect_same_pass(Mlp& full, Mlp& selected, const Matrix& input,
                      const std::vector<std::size_t>& cols,
                      const std::vector<double>& grad,
                      const std::string& label) {
  const Matrix& out = full.forward(input);
  std::vector<double> expected(input.rows());
  Matrix one_hot(out.rows(), out.cols());
  for (std::size_t r = 0; r < input.rows(); ++r) {
    expected[r] = out(r, cols[r]);
    one_hot(r, cols[r]) = grad[r];
  }
  full.backward(one_hot);

  std::vector<double> values;
  selected.forward_selected(input, cols, values);
  selected.backward_selected(cols, grad);

  EXPECT_TRUE(bitwise_equal(values, expected)) << label << ": head values";
  EXPECT_TRUE(bitwise_equal(selected.gradients(), full.gradients()))
      << label << ": gradients";
}

TEST(SelectedHead, MatchesFullPassBitwiseOnGeneratedCases) {
  const std::vector<Shape> shapes = {
      {5, {32}, 15}, {5, {16, 8}, 15}, {5, {}, 15}};
  util::Rng rng(2718);
  std::size_t cases = 0;
  for (const Shape& shape : shapes)
    for (const std::size_t batch : {1, 7, 128, 129})
      for (const Columns kind :
           {Columns::kCycling, Columns::kRepeated, Columns::kRandom}) {
        Mlp full = make_model(shape, rng);
        Mlp selected = full;
        const std::string label =
            describe(shape) + " batch " + std::to_string(batch) +
            " columns " + std::to_string(static_cast<int>(kind));
        // Two passes without zeroing: the second accumulates on top of the
        // first's nonzero gradients.
        for (int pass = 0; pass < 2; ++pass) {
          const Matrix input = make_input(batch, shape.input, rng);
          const auto cols = make_columns(batch, shape.output, kind, rng);
          const auto grad = make_grad(batch, rng);
          expect_same_pass(full, selected, input, cols, grad,
                           label + " pass " + std::to_string(pass));
        }
        ++cases;
      }
  EXPECT_EQ(cases, 36u);
}

TEST(SelectedHead, NonFiniteHeadWeightsMatchFullPassBitwise) {
  // A diverged model: a NaN and an infinity in the head. The zero inputs
  // that the full kernels skip must not meet them here either (0 * inf is
  // NaN), and every row that does meet them must turn non-finite alike.
  const std::vector<Shape> shapes = {{5, {32}, 15}, {5, {}, 15}};
  util::Rng rng(31);
  for (const Shape& shape : shapes) {
    Mlp full = make_model(shape, rng);
    std::vector<double> params = full.parameters();
    const std::size_t head_in =
        shape.hidden.empty() ? shape.input : shape.hidden.back();
    const std::size_t head_at = params.size() - head_in * shape.output -
                                shape.output;
    params[head_at + 1] = std::numeric_limits<double>::quiet_NaN();
    params[head_at + shape.output + 2] =
        std::numeric_limits<double>::infinity();
    full.set_parameters(params);
    Mlp selected = full;
    const Matrix input = make_input(129, shape.input, rng);
    const auto cols = make_columns(129, shape.output, Columns::kCycling, rng);
    expect_same_pass(full, selected, input, cols, make_grad(129, rng),
                     describe(shape));
  }
}

/// The layer-level pieces of one pass on a copy of `layer`: forward_selected
/// against forward, and backward_selected's input gradient and parameter
/// gradients against backward's.
void expect_same_dense_pass(const Dense& layer, const Matrix& input,
                            const std::vector<std::size_t>& cols,
                            const std::vector<double>& grad,
                            const std::string& label) {
  Dense full = layer;
  Dense selected = layer;
  const Matrix& out = full.forward(input);
  std::vector<double> expected(input.rows());
  Matrix one_hot(out.rows(), out.cols());
  for (std::size_t r = 0; r < input.rows(); ++r) {
    expected[r] = out(r, cols[r]);
    one_hot(r, cols[r]) = grad[r];
  }
  std::vector<double> values;
  selected.forward_selected(input, cols, values);
  EXPECT_TRUE(bitwise_equal(values, expected)) << label << ": head values";
  const Matrix& full_grad_input = full.backward(one_hot);
  const Matrix& selected_grad_input = selected.backward_selected(cols, grad);
  EXPECT_TRUE(
      bitwise_equal(selected_grad_input.data(), full_grad_input.data()))
      << label << ": input gradient";
  EXPECT_TRUE(bitwise_equal(selected.weight_grads().data(),
                            full.weight_grads().data()))
      << label << ": weight gradients";
  EXPECT_TRUE(bitwise_equal(selected.bias_grads().data(),
                            full.bias_grads().data()))
      << label << ": bias gradients";
}

TEST(SelectedHead, DenseLayerMatchesItsFullPassBitwise) {
  util::Rng rng(7);
  const Dense layer(32, 15, Init::kHe, rng);
  const Matrix input = make_input(129, 32, rng);
  const auto cols = make_columns(129, 15, Columns::kRandom, rng);
  expect_same_dense_pass(layer, input, cols, make_grad(129, rng), "He init");
}

TEST(SelectedHead, SignedZeroResultsMatchFullPassBitwise) {
  // Where only ±0.0 meets the sum, its sign shows whether the seed is +0.0
  // and whether the bias is added after the sum. Head weights all negative
  // and biases -0.0: a row of +0.0 inputs then forms only -0.0 products,
  // which a -0.0 seed would keep. Head weights of exactly ±0.0: a negative
  // loss derivative then gives a -0.0 input-gradient term, which the +0.0
  // seed of matmul_transpose turns into +0.0.
  util::Rng rng(11);
  Dense layer(32, 15, Init::kZero, rng);
  std::vector<double> params(layer.param_count(), -0.0);
  for (std::size_t i = 0; i < 32 * 15; ++i)
    params[i] = -rng.uniform(0.1, 1.0);
  Matrix input = make_input(16, 32, rng);
  for (std::size_t c = 0; c < 32; ++c) input(0, c) = 0.0;
  const auto cols = make_columns(16, 15, Columns::kCycling, rng);
  std::vector<double> grad(16);
  for (double& g : grad) g = -rng.uniform(0.1, 1.0);
  layer.set_params_from(params);
  expect_same_dense_pass(layer, input, cols, grad, "negative weights");
  for (std::size_t i = 0; i < 32 * 15; ++i)
    params[i] = i % 2 == 0 ? 0.0 : -0.0;
  layer.set_params_from(params);
  expect_same_dense_pass(layer, input, cols, grad, "zero weights");
}

TEST(SelectedHeadDeathTest, RejectsAnOutOfRangeColumn) {
  util::Rng rng(1);
  Mlp model = make_mlp(5, {32}, 15, rng);
  const Matrix input(2, 5, 0.5);
  const std::vector<std::size_t> cols = {3, 15};
  std::vector<double> values;
  EXPECT_DEATH(model.forward_selected(input, cols, values), "precondition");
  const std::vector<std::size_t> valid = {3, 14};
  const std::vector<double> grad = {0.5, 0.5};
  model.forward_selected(input, valid, values);
  EXPECT_DEATH(model.backward_selected(cols, grad), "precondition");
}

TEST(SelectedHeadDeathTest, RejectsAHeadThatIsNotDense) {
  util::Rng rng(1);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Dense>(5, 15, Init::kHe, rng));
  layers.push_back(std::make_unique<Relu>());
  Mlp model(std::move(layers));
  const Matrix input(2, 5, 0.5);
  const std::vector<std::size_t> cols = {0, 1};
  std::vector<double> values;
  EXPECT_DEATH(model.forward_selected(input, cols, values), "precondition");
}

}  // namespace
}  // namespace fedpower::nn
