#include "nn/loss.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace fedpower::nn {
namespace {

TEST(MseLoss, ValueAndGradient) {
  MseLoss loss;
  const Matrix prediction{{2.0, 0.0}};
  const Matrix target{{1.0, 0.0}};
  const LossResult r = loss.evaluate(prediction, target);
  // mean over 2 elements of 0.5*e^2: (0.5*1 + 0)/2 = 0.25
  EXPECT_DOUBLE_EQ(r.value, 0.25);
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 0.5);  // e/n = 1/2
  EXPECT_DOUBLE_EQ(r.grad(0, 1), 0.0);
}

TEST(MseLoss, ZeroAtPerfectPrediction) {
  MseLoss loss;
  const Matrix p{{1.0, -2.0}, {0.5, 3.0}};
  const LossResult r = loss.evaluate(p, p);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
  for (const double g : r.grad.data()) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(HuberLoss, QuadraticInsideDelta) {
  HuberLoss loss(1.0);
  const Matrix p{{0.5}};
  const Matrix t{{0.0}};
  const LossResult r = loss.evaluate(p, t);
  EXPECT_DOUBLE_EQ(r.value, 0.125);      // 0.5 * 0.25
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 0.5);   // e
}

TEST(HuberLoss, LinearOutsideDelta) {
  HuberLoss loss(1.0);
  const Matrix p{{3.0}};
  const Matrix t{{0.0}};
  const LossResult r = loss.evaluate(p, t);
  EXPECT_DOUBLE_EQ(r.value, 2.5);        // delta*(|e| - delta/2) = 1*(3-0.5)
  EXPECT_DOUBLE_EQ(r.grad(0, 0), 1.0);   // clipped at delta
}

TEST(HuberLoss, SymmetricInError) {
  HuberLoss loss(1.0);
  const Matrix t{{0.0}};
  const LossResult pos = loss.evaluate(Matrix{{2.0}}, t);
  const LossResult neg = loss.evaluate(Matrix{{-2.0}}, t);
  EXPECT_DOUBLE_EQ(pos.value, neg.value);
  EXPECT_DOUBLE_EQ(pos.grad(0, 0), -neg.grad(0, 0));
}

TEST(HuberLoss, ContinuousAtDelta) {
  HuberLoss loss(1.0);
  const Matrix t{{0.0}};
  const double just_inside =
      loss.evaluate(Matrix{{1.0 - 1e-9}}, t).value;
  const double just_outside =
      loss.evaluate(Matrix{{1.0 + 1e-9}}, t).value;
  EXPECT_NEAR(just_inside, just_outside, 1e-8);
}

TEST(HuberLoss, CustomDelta) {
  HuberLoss loss(2.0);
  const Matrix t{{0.0}};
  // |e| = 1.5 < delta=2 -> still quadratic.
  EXPECT_DOUBLE_EQ(loss.evaluate(Matrix{{1.5}}, t).value, 0.5 * 2.25);
  EXPECT_DOUBLE_EQ(loss.delta(), 2.0);
}

/// The pulled-arm predictions evaluate_selected() takes: row r's value at
/// column actions[r].
std::vector<double> pulled(const Matrix& prediction,
                           const std::vector<std::size_t>& actions) {
  std::vector<double> values;
  for (std::size_t r = 0; r < actions.size(); ++r)
    values.push_back(prediction(r, actions[r]));
  return values;
}

TEST(MaskedLoss, OnlyActionColumnContributes) {
  HuberLoss loss(1.0);
  const Matrix prediction{{0.5, 9.0, -3.0}};
  const std::vector<double> targets{0.0};
  std::vector<double> grad;
  const double value =
      loss.evaluate_selected(pulled(prediction, {0}), targets, grad);
  EXPECT_DOUBLE_EQ(value, 0.125);  // only column 0: 0.5*0.5^2
  // One gradient entry per row, for the pulled column; the other columns
  // get none at all.
  ASSERT_EQ(grad.size(), 1u);
  EXPECT_DOUBLE_EQ(grad[0], 0.5);
}

TEST(MaskedLoss, AveragesOverRowsNotElements) {
  MseLoss loss;
  const Matrix prediction{{1.0, 0.0}, {0.0, 2.0}};
  const std::vector<double> targets{0.0, 0.0};
  std::vector<double> grad;
  const double value =
      loss.evaluate_selected(pulled(prediction, {0, 1}), targets, grad);
  // Row errors 1 and 2 -> (0.5*1 + 0.5*4)/2 = 1.25
  EXPECT_DOUBLE_EQ(value, 1.25);
  ASSERT_EQ(grad.size(), 2u);
  EXPECT_DOUBLE_EQ(grad[0], 0.5);  // e/rows = 1/2
  EXPECT_DOUBLE_EQ(grad[1], 1.0);  // 2/2
}

TEST(MaskedLoss, DifferentActionsPerRow) {
  HuberLoss loss(1.0);
  const Matrix prediction{{1.0, 5.0}, {5.0, 1.0}};
  const std::vector<double> targets{1.0, 1.0};
  std::vector<double> grad;
  const double value =
      loss.evaluate_selected(pulled(prediction, {0, 1}), targets, grad);
  EXPECT_DOUBLE_EQ(value, 0.0);
  ASSERT_EQ(grad.size(), 2u);
  for (const double g : grad) EXPECT_DOUBLE_EQ(g, 0.0);
}

TEST(MaskedLoss, HuberClipsLargeRewardErrors) {
  HuberLoss loss(1.0);
  // Reward outliers (e.g. first -1 rewards after a violation) must not
  // explode the gradient: it is clipped to delta/rows.
  const Matrix prediction{{10.0}};
  const std::vector<double> targets{-1.0};
  std::vector<double> grad;
  (void)loss.evaluate_selected(pulled(prediction, {0}), targets, grad);
  ASSERT_EQ(grad.size(), 1u);
  EXPECT_DOUBLE_EQ(grad[0], 1.0);
}

TEST(MaskedLoss, GradientBufferIsResizedToTheBatch) {
  MseLoss loss;
  const std::vector<double> values{3.0, 1.0};
  const std::vector<double> targets{1.0, 1.0};
  std::vector<double> grad(7, 42.0);  // a larger batch's leftovers
  (void)loss.evaluate_selected(values, targets, grad);
  ASSERT_EQ(grad.size(), 2u);
  EXPECT_DOUBLE_EQ(grad[0], 1.0);  // e/rows = 2/2
  EXPECT_DOUBLE_EQ(grad[1], 0.0);
}

}  // namespace
}  // namespace fedpower::nn
