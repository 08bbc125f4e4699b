#include "nn/gradcheck.hpp"

#include <cmath>
#include <functional>

namespace fedpower::nn {

namespace {

/// backprop runs one forward/backward pass, accumulating the analytic
/// gradients; loss_value runs a forward pass and returns the loss.
GradCheckResult run_check(Mlp& model,
                          const std::function<double()>& loss_value,
                          const std::function<void()>& backprop,
                          double epsilon) {
  model.zero_gradients();
  backprop();
  const std::vector<double> analytic = model.gradients();

  std::vector<double> params = model.parameters();
  GradCheckResult result;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double saved = params[i];
    params[i] = saved + epsilon;
    model.set_parameters(params);
    const double plus = loss_value();
    params[i] = saved - epsilon;
    model.set_parameters(params);
    const double minus = loss_value();
    params[i] = saved;
    const double numeric = (plus - minus) / (2.0 * epsilon);
    const double abs_err = std::abs(analytic[i] - numeric);
    const double denom =
        std::max({std::abs(analytic[i]), std::abs(numeric), 1e-8});
    result.max_abs_error = std::max(result.max_abs_error, abs_err);
    result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
  }
  model.set_parameters(params);
  return result;
}

}  // namespace

GradCheckResult check_gradients(Mlp& model, const Loss& loss,
                                const Matrix& input, const Matrix& target,
                                double epsilon) {
  const auto value = [&] {
    return loss.evaluate(model.forward(input), target).value;
  };
  const auto backprop = [&] {
    model.backward(loss.evaluate(model.forward(input), target).grad);
  };
  return run_check(model, value, backprop, epsilon);
}

GradCheckResult check_gradients_masked(Mlp& model, const Loss& loss,
                                       const Matrix& input,
                                       const std::vector<std::size_t>& actions,
                                       const std::vector<double>& targets,
                                       double epsilon) {
  // The selected-column path, so the check covers its kernels.
  std::vector<double> values;
  std::vector<double> grad;
  const auto value = [&] {
    model.forward_selected(input, actions, values);
    return loss.evaluate_selected(values, targets, grad);
  };
  const auto backprop = [&] {
    value();
    model.backward_selected(actions, grad);
  };
  return run_check(model, value, backprop, epsilon);
}

}  // namespace fedpower::nn
