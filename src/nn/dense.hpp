// Fully connected layer: y = x W + b, with W stored [in x out].
#pragma once

#include "nn/layer.hpp"
#include "util/rng.hpp"

namespace fedpower::nn {

/// Weight initialization schemes (He for ReLU nets, Xavier otherwise).
enum class Init { kZero, kHe, kXavier };

class Dense final : public Layer {
 public:
  Dense(std::size_t in, std::size_t out, Init init, util::Rng& rng);

  const Matrix& forward(const Matrix& input) override;
  const Matrix& backward(const Matrix& grad_output) override;

  std::size_t param_count() const noexcept override;
  void copy_params_to(std::span<double> dst) const override;
  void set_params_from(std::span<const double> src) override;
  void copy_grads_to(std::span<double> dst) const override;
  void zero_grads() noexcept override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

  const Matrix& weights() const noexcept { return w_; }
  const Matrix& bias() const noexcept { return b_; }
  const Matrix& weight_grads() const noexcept { return gw_; }
  const Matrix& bias_grads() const noexcept { return gb_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Matrix w_;       // [in x out]
  Matrix b_;       // [1 x out]
  Matrix gw_;      // accumulated dL/dW
  Matrix gb_;      // accumulated dL/db
  // Workspaces (Layer gives their lifetime rule).
  Matrix input_;       // forward input, cached for backward
  Matrix output_;      // forward result
  Matrix grad_input_;  // backward result, dL/dinput
  Matrix step_gw_;     // this backward's dL/dW, added to gw_
  Matrix step_gb_;     // this backward's dL/db, added to gb_
};

}  // namespace fedpower::nn
