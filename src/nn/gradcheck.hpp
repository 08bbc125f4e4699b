// Finite-difference gradient verification. Used by the test suite to prove
// that analytic backpropagation matches numerical derivatives for every
// layer/loss combination we ship.
#pragma once

#include <vector>

#include "nn/loss.hpp"
#include "nn/mlp.hpp"

namespace fedpower::nn {

struct GradCheckResult {
  double max_abs_error = 0.0;  ///< max |analytic - numeric| over parameters
  double max_rel_error = 0.0;  ///< max relative error over parameters
};

/// Compares backprop gradients with central finite differences of the loss
/// wrt every parameter, for an elementwise (full-target) loss.
GradCheckResult check_gradients(Mlp& model, const Loss& loss,
                                const Matrix& input, const Matrix& target,
                                double epsilon = 1e-6);

/// Same, for the contextual-bandit loss on the pulled arm (actions[r] of
/// row r), through Mlp::forward_selected/backward_selected.
GradCheckResult check_gradients_masked(Mlp& model, const Loss& loss,
                                       const Matrix& input,
                                       const std::vector<std::size_t>& actions,
                                       const std::vector<double>& targets,
                                       double epsilon = 1e-6);

}  // namespace fedpower::nn
