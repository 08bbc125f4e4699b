// Regression losses. The paper trains the policy network with the Huber
// loss (§III-C); MSE is provided for ablations and gradient checking.
//
// For contextual-bandit training only the output column of the action that
// was actually taken carries a target. evaluate_selected() works on those
// pulled-arm predictions alone, one per row (Mlp::forward_selected), and
// returns one gradient entry per row for Mlp::backward_selected; the other
// outputs are neither computed nor given a gradient.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/matrix.hpp"

namespace fedpower::nn {

struct LossResult {
  double value = 0.0;  ///< mean loss over the contributing elements
  Matrix grad;         ///< dLoss/dPrediction, same shape as prediction
};

class Loss {
 public:
  virtual ~Loss() = default;

  /// Elementwise loss between same-shaped prediction and target, averaged
  /// over all elements.
  virtual LossResult evaluate(const Matrix& prediction,
                              const Matrix& target) const = 0;

  /// Bandit variant: values[r] is row r's prediction for the action it took
  /// and targets[r] that action's target. Writes dLoss/dvalues[r] into grad
  /// (resized, reusing its storage) and returns the loss, both averaged
  /// over rows.
  virtual double evaluate_selected(std::span<const double> values,
                                   std::span<const double> targets,
                                   std::vector<double>& grad) const = 0;
};

/// Mean squared error: L = mean((p - t)^2) / 2 with gradient (p - t)/n.
class MseLoss final : public Loss {
 public:
  LossResult evaluate(const Matrix& prediction,
                      const Matrix& target) const override;
  double evaluate_selected(std::span<const double> values,
                           std::span<const double> targets,
                           std::vector<double>& grad) const override;
};

/// Huber loss: quadratic for |e| <= delta, linear beyond — robust to the
/// reward outliers that occur when the power constraint is first violated.
class HuberLoss final : public Loss {
 public:
  explicit HuberLoss(double delta = 1.0);

  double delta() const noexcept { return delta_; }

  LossResult evaluate(const Matrix& prediction,
                      const Matrix& target) const override;
  double evaluate_selected(std::span<const double> values,
                           std::span<const double> targets,
                           std::vector<double>& grad) const override;

 private:
  double pointwise(double error) const noexcept;
  double derivative(double error) const noexcept;

  double delta_;
};

}  // namespace fedpower::nn
