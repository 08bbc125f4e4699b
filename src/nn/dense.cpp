#include "nn/dense.hpp"

#include <algorithm>
#include <cmath>

namespace fedpower::nn {

Dense::Dense(std::size_t in, std::size_t out, Init init, util::Rng& rng)
    : in_(in), out_(out), w_(in, out), b_(1, out), gw_(in, out), gb_(1, out) {
  FEDPOWER_EXPECTS(in > 0 && out > 0);
  double scale = 0.0;
  switch (init) {
    case Init::kZero:
      scale = 0.0;
      break;
    case Init::kHe:
      scale = std::sqrt(2.0 / static_cast<double>(in));
      break;
    case Init::kXavier:
      scale = std::sqrt(2.0 / static_cast<double>(in + out));
      break;
  }
  if (scale > 0.0)
    for (double& w : w_.data()) w = rng.normal(0.0, scale);
}

const Matrix& Dense::forward(const Matrix& input) {
  FEDPOWER_EXPECTS(input.cols() == in_);
  input_ = input;  // reuses input_'s storage; input may be a temporary
  matmul_into(input_, w_, output_);
  output_.add_row_broadcast(b_);
  return output_;
}

const Matrix& Dense::backward(const Matrix& grad_output) {
  FEDPOWER_EXPECTS(grad_output.cols() == out_);
  FEDPOWER_EXPECTS(grad_output.rows() == input_.rows());
  // This step's gradients are formed apart and then added, so accumulating
  // over several backward() calls rounds exactly as it always has.
  transpose_matmul_into(input_, grad_output, step_gw_);
  gw_ += step_gw_;
  column_sums_into(grad_output, step_gb_);
  gb_ += step_gb_;
  matmul_transpose_into(grad_output, w_, grad_input_);
  return grad_input_;
}

std::size_t Dense::param_count() const noexcept { return in_ * out_ + out_; }

void Dense::copy_params_to(std::span<double> dst) const {
  FEDPOWER_EXPECTS(dst.size() == param_count());
  std::copy(w_.data().begin(), w_.data().end(), dst.begin());
  std::copy(b_.data().begin(), b_.data().end(),
            dst.begin() + static_cast<std::ptrdiff_t>(w_.size()));
}

void Dense::set_params_from(std::span<const double> src) {
  FEDPOWER_EXPECTS(src.size() == param_count());
  std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(w_.size()),
            w_.data().begin());
  std::copy(src.begin() + static_cast<std::ptrdiff_t>(w_.size()), src.end(),
            b_.data().begin());
}

void Dense::copy_grads_to(std::span<double> dst) const {
  FEDPOWER_EXPECTS(dst.size() == param_count());
  std::copy(gw_.data().begin(), gw_.data().end(), dst.begin());
  std::copy(gb_.data().begin(), gb_.data().end(),
            dst.begin() + static_cast<std::ptrdiff_t>(gw_.size()));
}

void Dense::zero_grads() noexcept {
  std::fill(gw_.data().begin(), gw_.data().end(), 0.0);
  std::fill(gb_.data().begin(), gb_.data().end(), 0.0);
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::make_unique<Dense>(*this);
}

}  // namespace fedpower::nn
