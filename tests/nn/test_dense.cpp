#include "nn/dense.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "nn/mlp.hpp"

namespace fedpower::nn {
namespace {

TEST(Dense, ForwardComputesAffineMap) {
  util::Rng rng(1);
  Dense layer(2, 3, Init::kZero, rng);
  std::vector<double> params = {
      // W (2x3, row-major)
      1.0, 2.0, 3.0,
      4.0, 5.0, 6.0,
      // b
      0.1, 0.2, 0.3};
  layer.set_params_from(params);
  const Matrix out = layer.forward(Matrix{{1.0, 1.0}});
  EXPECT_NEAR(out(0, 0), 5.1, 1e-12);
  EXPECT_NEAR(out(0, 1), 7.2, 1e-12);
  EXPECT_NEAR(out(0, 2), 9.3, 1e-12);
}

TEST(Dense, ParamCount) {
  util::Rng rng(2);
  Dense layer(5, 32, Init::kHe, rng);
  EXPECT_EQ(layer.param_count(), 5u * 32u + 32u);
}

TEST(Dense, ParamsRoundTrip) {
  util::Rng rng(3);
  Dense layer(3, 4, Init::kHe, rng);
  std::vector<double> params(layer.param_count());
  layer.copy_params_to(params);
  Dense other(3, 4, Init::kZero, rng);
  other.set_params_from(params);
  std::vector<double> copied(other.param_count());
  other.copy_params_to(copied);
  EXPECT_EQ(params, copied);
}

TEST(Dense, HeInitHasExpectedScale) {
  util::Rng rng(4);
  Dense layer(100, 200, Init::kHe, rng);
  std::vector<double> params(layer.param_count());
  layer.copy_params_to(params);
  double sum_sq = 0.0;
  const std::size_t weight_count = 100 * 200;
  for (std::size_t i = 0; i < weight_count; ++i)
    sum_sq += params[i] * params[i];
  const double observed_var = sum_sq / static_cast<double>(weight_count);
  EXPECT_NEAR(observed_var, 2.0 / 100.0, 0.002);
  // Biases are zero-initialized.
  for (std::size_t i = weight_count; i < params.size(); ++i)
    EXPECT_DOUBLE_EQ(params[i], 0.0);
}

TEST(Dense, XavierInitHasExpectedScale) {
  util::Rng rng(5);
  Dense layer(100, 100, Init::kXavier, rng);
  std::vector<double> params(layer.param_count());
  layer.copy_params_to(params);
  double sum_sq = 0.0;
  const std::size_t weight_count = 100 * 100;
  for (std::size_t i = 0; i < weight_count; ++i)
    sum_sq += params[i] * params[i];
  EXPECT_NEAR(sum_sq / static_cast<double>(weight_count), 0.01, 0.001);
}

TEST(Dense, BackwardInputGradient) {
  util::Rng rng(6);
  Dense layer(2, 2, Init::kZero, rng);
  layer.set_params_from(std::vector<double>{1.0, 2.0, 3.0, 4.0, 0.0, 0.0});
  layer.forward(Matrix{{1.0, 1.0}});
  // grad_in = grad_out * W^T
  const Matrix grad_in = layer.backward(Matrix{{1.0, 0.0}});
  EXPECT_DOUBLE_EQ(grad_in(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(grad_in(0, 1), 3.0);
}

TEST(Dense, BackwardAccumulatesWeightGradients) {
  util::Rng rng(7);
  Dense layer(2, 1, Init::kZero, rng);
  layer.forward(Matrix{{2.0, 3.0}});
  layer.backward(Matrix{{1.0}});
  // dL/dW = x^T * grad_out
  EXPECT_DOUBLE_EQ(layer.weight_grads()(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(layer.weight_grads()(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(layer.bias_grads()(0, 0), 1.0);
  // A second backward accumulates.
  layer.forward(Matrix{{2.0, 3.0}});
  layer.backward(Matrix{{1.0}});
  EXPECT_DOUBLE_EQ(layer.weight_grads()(0, 0), 4.0);
}

TEST(Dense, ZeroGradsClears) {
  util::Rng rng(8);
  Dense layer(2, 1, Init::kHe, rng);
  layer.forward(Matrix{{1.0, 1.0}});
  layer.backward(Matrix{{1.0}});
  layer.zero_grads();
  std::vector<double> grads(layer.param_count());
  layer.copy_grads_to(grads);
  for (const double g : grads) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(Dense, BatchForwardMatchesPerRow) {
  util::Rng rng(9);
  Dense layer(3, 2, Init::kHe, rng);
  const Matrix batch{{1.0, 0.5, -1.0}, {0.0, 2.0, 1.0}};
  const Matrix out = layer.forward(batch);
  Dense single = layer;
  const Matrix row0 = single.forward(Matrix{{1.0, 0.5, -1.0}});
  const Matrix row1 = single.forward(Matrix{{0.0, 2.0, 1.0}});
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_NEAR(out(0, c), row0(0, c), 1e-12);
    EXPECT_NEAR(out(1, c), row1(0, c), 1e-12);
  }
}

TEST(Dense, CloneIsDeepCopy) {
  util::Rng rng(10);
  Dense layer(2, 2, Init::kHe, rng);
  auto clone = layer.clone();
  std::vector<double> zeros(layer.param_count(), 0.0);
  layer.set_params_from(zeros);
  std::vector<double> cloned(clone->param_count());
  clone->copy_grads_to(cloned);  // grads are zero either way
  std::vector<double> params(clone->param_count());
  clone->copy_params_to(params);
  bool any_nonzero = false;
  for (const double p : params) any_nonzero |= (p != 0.0);
  EXPECT_TRUE(any_nonzero);
}

// --- lazily sized gradient accumulators -----------------------------------

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

TEST(DenseLazyGrads, ReadZeroBeforeTheFirstBackward) {
  util::Rng rng(11);
  Dense layer(3, 2, Init::kHe, rng);
  EXPECT_TRUE(layer.weight_grads().empty());
  EXPECT_TRUE(layer.bias_grads().empty());
  std::vector<double> grads(layer.param_count(), 7.0);
  layer.copy_grads_to(grads);
  for (const double g : grads)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(g), std::bit_cast<std::uint64_t>(0.0));
  layer.zero_grads();  // nothing to clear, nothing sized
  EXPECT_TRUE(layer.weight_grads().empty());
  // A forward pass alone sizes nothing either.
  layer.forward(Matrix{{1.0, 2.0, 3.0}});
  EXPECT_TRUE(layer.weight_grads().empty());

  util::Rng mlp_rng(12);
  Mlp mlp = make_mlp(5, {8}, 3, mlp_rng);
  const std::vector<double> mlp_grads = mlp.gradients();
  ASSERT_EQ(mlp_grads.size(), mlp.param_count());
  EXPECT_TRUE(same_bits(mlp_grads, std::vector<double>(mlp.param_count(), 0.0)));
}

TEST(DenseLazyGrads, CloneOfAnUntrainedLayerTrainsLikeTheOriginal) {
  util::Rng rng(13);
  Dense layer(2, 3, Init::kHe, rng);
  const auto clone = layer.clone();
  std::vector<double> cloned(clone->param_count(), 1.0);
  clone->copy_grads_to(cloned);
  EXPECT_TRUE(same_bits(cloned, std::vector<double>(cloned.size(), 0.0)));
  const Matrix input{{0.5, -1.5}, {2.0, 0.25}};
  const Matrix grad{{1.0, -0.5, 0.0}, {0.25, 2.0, -1.0}};
  layer.forward(input);
  layer.backward(grad);
  clone->forward(input);
  clone->backward(grad);
  std::vector<double> original(layer.param_count());
  layer.copy_grads_to(original);
  clone->copy_grads_to(cloned);
  EXPECT_TRUE(same_bits(original, cloned));
}

/// The first backward into unsized accumulators against a layer whose
/// accumulators were sized and zero-filled beforehand (by a backward of an
/// all-zero gradient), as they were when the constructor allocated them.
/// The inputs and gradients carry -0.0, so the step gradients are built
/// from -0.0 products; zero-fill-then-add keeps 0.0 + x's signed zeros.
TEST(DenseLazyGrads, FirstBackwardMatchesAnEagerlyAllocatedReference) {
  const Matrix input{{-0.0, 1.5, -0.0}, {2.0, -0.0, 0.0}, {-0.0, -0.0, -3.0}};
  const Matrix grad{{0.0, -0.0}, {-0.0, 0.0}, {-0.0, 1.25}};
  const std::vector<std::size_t> cols = {1, 0, 1};
  const std::vector<double> selected = {-0.0, 0.0, 1.25};
  for (const bool selected_path : {false, true}) {
    SCOPED_TRACE(selected_path ? "backward_selected" : "backward");
    util::Rng rng(14);
    Dense lazy(3, 2, Init::kHe, rng);
    Dense eager(lazy);
    eager.forward(input);
    eager.backward(Matrix(3, 2));
    ASSERT_FALSE(eager.weight_grads().empty());
    std::vector<double> out;
    for (Dense* layer : {&lazy, &eager}) {
      if (selected_path) {
        layer->forward_selected(input, cols, out);
        layer->backward_selected(cols, selected);
      } else {
        layer->forward(input);
        layer->backward(grad);
      }
    }
    EXPECT_TRUE(same_bits(lazy.weight_grads().data(),
                          eager.weight_grads().data()));
    EXPECT_TRUE(same_bits(lazy.bias_grads().data(), eager.bias_grads().data()));
    EXPECT_EQ(lazy.weight_grads().rows(), 3u);
    EXPECT_EQ(lazy.weight_grads().cols(), 2u);
    // 0.0 + x never leaves a -0.0 behind.
    for (const double g : lazy.weight_grads().data()) {
      if (g == 0.0) {
        EXPECT_FALSE(std::signbit(g));
      }
    }
  }
}

}  // namespace
}  // namespace fedpower::nn
