// Regression losses. The paper trains the policy network with the Huber
// loss (§III-C); MSE is provided for ablations and gradient checking.
//
// For contextual-bandit training only the output column of the action that
// was actually taken carries a target; the masked_* helpers compute the loss
// and gradient over (row, action) pairs and leave all other outputs with
// zero gradient.
#pragma once

#include <cstddef>
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

  /// Bandit variant: row i contributes only at column actions[i] with target
  /// targets[i]; the returned gradient is zero elsewhere. Averaged over rows.
  LossResult evaluate_masked(const Matrix& prediction,
                             const std::vector<std::size_t>& actions,
                             const std::vector<double>& targets) const {
    LossResult result;
    result.value = evaluate_masked_into(prediction, actions, targets,
                                        result.grad);
    return result;
  }

  /// evaluate_masked() writing the gradient into a caller-owned workspace
  /// (resized, reusing its storage); returns the loss value.
  virtual double evaluate_masked_into(const Matrix& prediction,
                                      const std::vector<std::size_t>& actions,
                                      const std::vector<double>& targets,
                                      Matrix& grad) const = 0;
};

/// Mean squared error: L = mean((p - t)^2) / 2 with gradient (p - t)/n.
class MseLoss final : public Loss {
 public:
  LossResult evaluate(const Matrix& prediction,
                      const Matrix& target) const override;
  double evaluate_masked_into(const Matrix& prediction,
                              const std::vector<std::size_t>& actions,
                              const std::vector<double>& targets,
                              Matrix& grad) const override;
};

/// Huber loss: quadratic for |e| <= delta, linear beyond — robust to the
/// reward outliers that occur when the power constraint is first violated.
class HuberLoss final : public Loss {
 public:
  explicit HuberLoss(double delta = 1.0);

  double delta() const noexcept { return delta_; }

  LossResult evaluate(const Matrix& prediction,
                      const Matrix& target) const override;
  double evaluate_masked_into(const Matrix& prediction,
                              const std::vector<std::size_t>& actions,
                              const std::vector<double>& targets,
                              Matrix& grad) const override;

 private:
  double pointwise(double error) const noexcept;
  double derivative(double error) const noexcept;

  double delta_;
};

}  // namespace fedpower::nn
