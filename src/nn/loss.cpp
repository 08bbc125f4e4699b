#include "nn/loss.hpp"

#include <cmath>

namespace fedpower::nn {

LossResult MseLoss::evaluate(const Matrix& prediction,
                             const Matrix& target) const {
  FEDPOWER_EXPECTS(prediction.same_shape(target));
  FEDPOWER_EXPECTS(!prediction.empty());
  LossResult result;
  result.grad = Matrix(prediction.rows(), prediction.cols());
  const double n = static_cast<double>(prediction.size());
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    const double e = prediction.data()[i] - target.data()[i];
    result.value += 0.5 * e * e;
    result.grad.data()[i] = e / n;
  }
  result.value /= n;
  return result;
}

double MseLoss::evaluate_selected(std::span<const double> values,
                                  std::span<const double> targets,
                                  std::vector<double>& grad) const {
  FEDPOWER_EXPECTS(targets.size() == values.size());
  FEDPOWER_EXPECTS(!values.empty());
  grad.resize(values.size());
  double value = 0.0;
  const double n = static_cast<double>(values.size());
  for (std::size_t r = 0; r < values.size(); ++r) {
    const double e = values[r] - targets[r];
    value += 0.5 * e * e;
    grad[r] = e / n;
  }
  return value / n;
}

HuberLoss::HuberLoss(double delta) : delta_(delta) {
  FEDPOWER_EXPECTS(delta > 0.0);
}

double HuberLoss::pointwise(double error) const noexcept {
  const double abs_e = std::abs(error);
  if (abs_e <= delta_) return 0.5 * error * error;
  return delta_ * (abs_e - 0.5 * delta_);
}

double HuberLoss::derivative(double error) const noexcept {
  if (std::abs(error) <= delta_) return error;
  return error > 0.0 ? delta_ : -delta_;
}

LossResult HuberLoss::evaluate(const Matrix& prediction,
                               const Matrix& target) const {
  FEDPOWER_EXPECTS(prediction.same_shape(target));
  FEDPOWER_EXPECTS(!prediction.empty());
  LossResult result;
  result.grad = Matrix(prediction.rows(), prediction.cols());
  const double n = static_cast<double>(prediction.size());
  for (std::size_t i = 0; i < prediction.size(); ++i) {
    const double e = prediction.data()[i] - target.data()[i];
    result.value += pointwise(e);
    result.grad.data()[i] = derivative(e) / n;
  }
  result.value /= n;
  return result;
}

double HuberLoss::evaluate_selected(std::span<const double> values,
                                    std::span<const double> targets,
                                    std::vector<double>& grad) const {
  FEDPOWER_EXPECTS(targets.size() == values.size());
  FEDPOWER_EXPECTS(!values.empty());
  grad.resize(values.size());
  double value = 0.0;
  const double n = static_cast<double>(values.size());
  for (std::size_t r = 0; r < values.size(); ++r) {
    const double e = values[r] - targets[r];
    value += pointwise(e);
    grad[r] = derivative(e) / n;
  }
  return value / n;
}

}  // namespace fedpower::nn
