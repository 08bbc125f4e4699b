// Parameter-free activation layers.
#pragma once

#include "nn/layer.hpp"

namespace fedpower::nn {

/// Rectified linear unit, the activation the paper's policy network uses.
class Relu final : public Layer {
 public:
  const Matrix& forward(const Matrix& input) override;
  const Matrix& backward(const Matrix& grad_output) override;
  void forward_row(std::span<const double> in,
                   std::span<double> out) const override;
  std::size_t output_width(std::size_t in_width) const noexcept override {
    return in_width;
  }
  std::size_t param_count() const noexcept override { return 0; }
  void copy_params_to(std::span<double>) const override {}
  void set_params_from(std::span<const double>) override {}
  bool write_params(ckpt::Writer&, ParamFormat) const override {
    return true;
  }
  void read_params(ckpt::Reader&, ParamFormat) override {}
  void copy_grads_to(std::span<double>) const override {}
  void zero_grads() noexcept override {}
  void release_workspaces() noexcept override;
  std::unique_ptr<Layer> clone() const override;

 private:
  // backward() masks on the output: relu(x) <= 0 exactly when x <= 0.
  Matrix output_;      // forward result workspace
  Matrix grad_input_;  // backward result workspace
};

/// Hyperbolic tangent (available for ablations; the paper uses ReLU).
class Tanh final : public Layer {
 public:
  const Matrix& forward(const Matrix& input) override;
  const Matrix& backward(const Matrix& grad_output) override;
  void forward_row(std::span<const double> in,
                   std::span<double> out) const override;
  std::size_t output_width(std::size_t in_width) const noexcept override {
    return in_width;
  }
  std::size_t param_count() const noexcept override { return 0; }
  void copy_params_to(std::span<double>) const override {}
  void set_params_from(std::span<const double>) override {}
  bool write_params(ckpt::Writer&, ParamFormat) const override {
    return true;
  }
  void read_params(ckpt::Reader&, ParamFormat) override {}
  void copy_grads_to(std::span<double>) const override {}
  void zero_grads() noexcept override {}
  void release_workspaces() noexcept override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Matrix output_;      // forward result workspace
  Matrix grad_input_;  // backward result workspace
};

}  // namespace fedpower::nn
