#include "nn/mlp.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace fedpower::nn {
namespace {

TEST(Mlp, PaperTopologyParamCount) {
  // 5 inputs -> 32 hidden (ReLU) -> 15 outputs: 5*32+32 + 32*15+15 = 687.
  util::Rng rng(1);
  Mlp mlp = make_mlp(5, {32}, 15, rng);
  EXPECT_EQ(mlp.param_count(), 687u);
  EXPECT_EQ(mlp.layer_count(), 3u);  // dense, relu, dense
}

TEST(Mlp, InitNormalCountIsWhatMakeMlpDraws) {
  struct Shape {
    std::size_t input;
    std::vector<std::size_t> hidden;
    std::size_t output;
  };
  const Shape shapes[] = {{5, {32}, 15},      // Table I
                          {5, {16, 8}, 15},   // two hidden layers
                          {3, {}, 2},         // linear
                          {7, {1, 9, 4}, 1}};
  for (const Shape& shape : shapes) {
    for (const Init init : {Init::kHe, Init::kXavier, Init::kZero}) {
      for (const std::uint64_t seed : {1ULL, 99ULL, 2026ULL}) {
        SCOPED_TRACE(::testing::Message()
                     << shape.input << "->" << shape.hidden.size()
                     << " hidden->" << shape.output << " init "
                     << static_cast<int>(init) << " seed " << seed);
        util::Rng built(seed);
        const Mlp mlp =
            make_mlp(shape.input, shape.hidden, shape.output, built, init);
        util::Rng skipped(seed);
        const std::size_t draws =
            init_normal_count(shape.input, shape.hidden, shape.output, init);
        skipped.skip_normals(draws);
        EXPECT_EQ(skipped.state(), built.state());
        // Every weight (not bias) is one draw, unless the init is zero.
        const std::size_t biases =
            std::accumulate(shape.hidden.begin(), shape.hidden.end(),
                            shape.output);
        EXPECT_EQ(draws, init == Init::kZero ? 0 : mlp.param_count() - biases);
      }
    }
  }
}

TEST(Mlp, LinearModelWhenNoHiddenLayers) {
  util::Rng rng(2);
  Mlp mlp = make_mlp(4, {}, 3, rng);
  EXPECT_EQ(mlp.param_count(), 4u * 3u + 3u);
  EXPECT_EQ(mlp.layer_count(), 1u);
}

TEST(Mlp, ForwardShape) {
  util::Rng rng(3);
  Mlp mlp = make_mlp(5, {32}, 15, rng);
  const Matrix out = mlp.forward(Matrix(7, 5, 0.1));
  EXPECT_EQ(out.rows(), 7u);
  EXPECT_EQ(out.cols(), 15u);
}

TEST(Mlp, ParametersRoundTrip) {
  util::Rng rng(4);
  Mlp mlp = make_mlp(3, {8}, 2, rng);
  const std::vector<double> params = mlp.parameters();
  Mlp other = make_mlp(3, {8}, 2, rng);
  other.set_parameters(params);
  EXPECT_EQ(other.parameters(), params);
}

TEST(Mlp, SetParametersChangesOutput) {
  util::Rng rng(5);
  Mlp mlp = make_mlp(2, {4}, 1, rng);
  const Matrix input{{1.0, -0.5}};
  const double before = mlp.forward(input)(0, 0);
  std::vector<double> params(mlp.param_count(), 0.0);
  mlp.set_parameters(params);
  const double after = mlp.forward(input)(0, 0);
  EXPECT_NE(before, after);
  EXPECT_DOUBLE_EQ(after, 0.0);
}

TEST(Mlp, CopyIsDeep) {
  util::Rng rng(6);
  Mlp a = make_mlp(2, {4}, 2, rng);
  Mlp b = a;
  std::vector<double> zeros(a.param_count(), 0.0);
  a.set_parameters(zeros);
  bool any_nonzero = false;
  for (const double p : b.parameters()) any_nonzero |= (p != 0.0);
  EXPECT_TRUE(any_nonzero);
}

TEST(Mlp, AssignmentIsDeep) {
  util::Rng rng(7);
  Mlp a = make_mlp(2, {3}, 1, rng);
  Mlp b = make_mlp(2, {3}, 1, rng);
  b = a;
  EXPECT_EQ(a.parameters(), b.parameters());
  std::vector<double> zeros(a.param_count(), 0.0);
  a.set_parameters(zeros);
  EXPECT_NE(a.parameters(), b.parameters());
}

TEST(Mlp, ZeroGradientsClearsAllLayers) {
  util::Rng rng(8);
  Mlp mlp = make_mlp(2, {4}, 2, rng);
  const Matrix out = mlp.forward(Matrix{{1.0, 1.0}});
  mlp.backward(Matrix(1, 2, 1.0));
  mlp.zero_gradients();
  for (const double g : mlp.gradients()) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(Mlp, TrainsToFitSimpleFunction) {
  // Supervised sanity check: regress y = [x0 + x1, x0 - x1].
  util::Rng rng(9);
  Mlp mlp = make_mlp(2, {16}, 2, rng);
  MseLoss loss;
  Adam adam(0.01);
  util::Rng data_rng(10);
  double final_loss = 1e9;
  for (int iter = 0; iter < 2000; ++iter) {
    Matrix input(16, 2);
    Matrix target(16, 2);
    for (std::size_t r = 0; r < 16; ++r) {
      const double x0 = data_rng.uniform(-1.0, 1.0);
      const double x1 = data_rng.uniform(-1.0, 1.0);
      input(r, 0) = x0;
      input(r, 1) = x1;
      target(r, 0) = x0 + x1;
      target(r, 1) = x0 - x1;
    }
    const Matrix prediction = mlp.forward(input);
    const LossResult result = loss.evaluate(prediction, target);
    mlp.zero_gradients();
    mlp.backward(result.grad);
    std::vector<double> params = mlp.parameters();
    adam.step(params, mlp.gradients());
    mlp.set_parameters(params);
    final_loss = result.value;
  }
  EXPECT_LT(final_loss, 1e-3);
}

TEST(Mlp, ReluNetworkIsPiecewiseLinear) {
  // Scaling a positive-activation input scales the (bias-free) output.
  util::Rng rng(11);
  Mlp mlp = make_mlp(1, {4}, 1, rng);
  std::vector<double> params = mlp.parameters();
  // Zero all biases: layout is [W1 (1x4), b1 (4), W2 (4x1), b2 (1)].
  for (std::size_t i = 4; i < 8; ++i) params[i] = 0.0;
  params[12] = 0.0;
  mlp.set_parameters(params);
  const double y1 = mlp.forward(Matrix{{1.0}})(0, 0);
  const double y2 = mlp.forward(Matrix{{2.0}})(0, 0);
  EXPECT_NEAR(y2, 2.0 * y1, 1e-9);
}

}  // namespace
}  // namespace fedpower::nn
