#include "nn/activation.hpp"

#include <cmath>

namespace fedpower::nn {

const Matrix& Relu::forward(const Matrix& input) {
  output_.resize(input.rows(), input.cols());
  const double* in = input.data().data();
  double* out = output_.data().data();
  // A select, not a branch; NaN and -0.0 pass through unchanged.
  for (std::size_t i = 0; i < input.size(); ++i)
    out[i] = in[i] < 0.0 ? 0.0 : in[i];
  return output_;
}

void Relu::forward_row(std::span<const double> in,
                       std::span<double> out) const {
  FEDPOWER_EXPECTS(out.size() == in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    out[i] = in[i] < 0.0 ? 0.0 : in[i];
}

const Matrix& Relu::backward(const Matrix& grad_output) {
  FEDPOWER_EXPECTS(grad_output.same_shape(output_));
  grad_input_.resize(grad_output.rows(), grad_output.cols());
  const double* y = output_.data().data();
  const double* g = grad_output.data().data();
  double* out = grad_input_.data().data();
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    const double gi = g[i];  // read unconditionally so the select vectorizes
    out[i] = y[i] <= 0.0 ? 0.0 : gi;
  }
  return grad_input_;
}

void Relu::release_workspaces() noexcept {
  output_ = Matrix();
  grad_input_ = Matrix();
}

std::unique_ptr<Layer> Relu::clone() const {
  return std::make_unique<Relu>(*this);
}

const Matrix& Tanh::forward(const Matrix& input) {
  output_.resize(input.rows(), input.cols());
  for (std::size_t i = 0; i < input.size(); ++i)
    output_.data()[i] = std::tanh(input.data()[i]);
  return output_;
}

void Tanh::forward_row(std::span<const double> in,
                       std::span<double> out) const {
  FEDPOWER_EXPECTS(out.size() == in.size());
  for (std::size_t i = 0; i < in.size(); ++i) out[i] = std::tanh(in[i]);
}

const Matrix& Tanh::backward(const Matrix& grad_output) {
  FEDPOWER_EXPECTS(grad_output.same_shape(output_));
  grad_input_.resize(grad_output.rows(), grad_output.cols());
  for (std::size_t i = 0; i < grad_output.size(); ++i) {
    const double y = output_.data()[i];
    grad_input_.data()[i] = grad_output.data()[i] * (1.0 - y * y);
  }
  return grad_input_;
}

void Tanh::release_workspaces() noexcept {
  output_ = Matrix();
  grad_input_ = Matrix();
}

std::unique_ptr<Layer> Tanh::clone() const {
  return std::make_unique<Tanh>(*this);
}

}  // namespace fedpower::nn
