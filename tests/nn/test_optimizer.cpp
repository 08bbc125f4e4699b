#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace fedpower::nn {
namespace {

TEST(Sgd, BasicStep) {
  Sgd sgd(0.1);
  std::vector<double> params = {1.0, -1.0};
  sgd.step(params, {1.0, -2.0});
  EXPECT_DOUBLE_EQ(params[0], 0.9);
  EXPECT_DOUBLE_EQ(params[1], -0.8);
}

TEST(Sgd, MomentumAccumulates) {
  Sgd sgd(0.1, 0.9);
  std::vector<double> params = {0.0};
  sgd.step(params, {1.0});   // v=1, p=-0.1
  EXPECT_DOUBLE_EQ(params[0], -0.1);
  sgd.step(params, {1.0});   // v=1.9, p=-0.1-0.19
  EXPECT_NEAR(params[0], -0.29, 1e-12);
}

TEST(Sgd, ResetClearsMomentum) {
  Sgd sgd(0.1, 0.9);
  std::vector<double> params = {0.0};
  sgd.step(params, {1.0});
  sgd.reset();
  params = {0.0};
  sgd.step(params, {1.0});
  EXPECT_DOUBLE_EQ(params[0], -0.1);  // same as first-ever step
}

TEST(Adam, FirstStepMovesByLearningRate) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Adam adam(0.01);
  std::vector<double> params = {0.0, 0.0};
  adam.step(params, {1.0, -1000.0});
  EXPECT_NEAR(params[0], -0.01, 1e-6);
  EXPECT_NEAR(params[1], 0.01, 1e-6);
}

TEST(Adam, ConvergesOnQuadratic) {
  // Minimize f(x) = (x - 3)^2.
  Adam adam(0.1);
  std::vector<double> params = {0.0};
  for (int i = 0; i < 500; ++i) {
    const std::vector<double> grad = {2.0 * (params[0] - 3.0)};
    adam.step(params, grad);
  }
  EXPECT_NEAR(params[0], 3.0, 1e-3);
}

TEST(Adam, ConvergesFasterThanSgdOnIllConditioned) {
  // f(x, y) = x^2 + 100 y^2 — pathological for plain SGD at usable rates.
  Adam adam(0.1);
  Sgd sgd(0.001);
  std::vector<double> pa = {5.0, 5.0};
  std::vector<double> ps = {5.0, 5.0};
  for (int i = 0; i < 300; ++i) {
    adam.step(pa, {2.0 * pa[0], 200.0 * pa[1]});
    sgd.step(ps, {2.0 * ps[0], 200.0 * ps[1]});
  }
  const double fa = pa[0] * pa[0] + 100.0 * pa[1] * pa[1];
  const double fs = ps[0] * ps[0] + 100.0 * ps[1] * ps[1];
  EXPECT_LT(fa, fs);
}

TEST(Adam, StepCountIncrements) {
  Adam adam(0.01);
  std::vector<double> params = {0.0};
  EXPECT_EQ(adam.step_count(), 0);
  adam.step(params, {1.0});
  adam.step(params, {1.0});
  EXPECT_EQ(adam.step_count(), 2);
}

TEST(Adam, ResetRestartsBiasCorrection) {
  Adam adam(0.01);
  std::vector<double> params = {0.0};
  adam.step(params, {1.0});
  adam.reset();
  EXPECT_EQ(adam.step_count(), 0);
  std::vector<double> fresh = {0.0};
  adam.step(fresh, {1.0});
  EXPECT_NEAR(fresh[0], -0.01, 1e-6);
}

TEST(Adam, ReleaseRestartsLikeAFreshOptimizer) {
  Adam used(0.01);
  std::vector<double> params = {0.5, -0.25};
  used.step(params, {1.0, -2.0});
  used.step(params, {0.5, 0.5});
  used.release();
  EXPECT_EQ(used.step_count(), 0);
  Adam fresh(0.01);
  std::vector<double> a = {0.1, 0.2};
  std::vector<double> b = a;
  used.step(a, {0.3, -0.7});
  fresh.step(b, {0.3, -0.7});
  EXPECT_EQ(a, b);
}

TEST(Adam, ZeroGradientLeavesParamsNearlyFixed) {
  Adam adam(0.01);
  std::vector<double> params = {1.0};
  adam.step(params, {0.0});
  EXPECT_NEAR(params[0], 1.0, 1e-9);
}

TEST(Adam, HandlesResize) {
  // State re-initializes if the parameter vector size changes.
  Adam adam(0.01);
  std::vector<double> small = {0.0};
  adam.step(small, {1.0});
  std::vector<double> large = {0.0, 0.0, 0.0};
  adam.step(large, {1.0, 1.0, 1.0});
  for (const double p : large) EXPECT_NEAR(p, -0.01, 1e-6);
}

}  // namespace
}  // namespace fedpower::nn
