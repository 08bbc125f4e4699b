#include "nn/dense.hpp"

#include <algorithm>
#include <cmath>

namespace fedpower::nn {

Dense::Dense(std::size_t in, std::size_t out, Init init, util::Rng& rng)
    : in_(in), out_(out), w_(in, out), b_(1, out) {
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

void Dense::forward_row(std::span<const double> in,
                        std::span<double> out) const {
  // The kernels forward() runs, on one row.
  matmul_row_into(in, w_, out);
  add_row_into(out, b_.data());
}

const Matrix& Dense::backward(const Matrix& grad_output) {
  accumulate_grads(grad_output);
  matmul_transpose_into(grad_output, w_, grad_input_);
  return grad_input_;
}

void Dense::accumulate_grads(const Matrix& grad_output) {
  FEDPOWER_EXPECTS(grad_output.cols() == out_);
  FEDPOWER_EXPECTS(grad_output.rows() == input_.rows());
  transpose_matmul_into(input_, grad_output, step_gw_);
  column_sums_into(grad_output, step_gb_);
  add_step_grads();
}

void Dense::add_step_grads() {
  // The accumulators are sized, zero-filled, by the first backward pass: a
  // layer that never trains (an evaluation policy, a device that has not
  // reached its first update) never holds them. This step's gradients are
  // formed apart and then added to the zeros, so accumulating over several
  // backward calls rounds exactly as it always has.
  if (gw_.empty()) {
    gw_ = Matrix(in_, out_);
    gb_ = Matrix(1, out_);
  }
  gw_ += step_gw_;
  gb_ += step_gb_;
}

void Dense::expect_columns(std::span<const std::size_t> cols) const {
  for (const std::size_t c : cols) FEDPOWER_EXPECTS(c < out_);
}

namespace {

/// Rows interleaved by forward_selected: R independent add chains hide the
/// add latency that a single row's dependent chain is bound by.
constexpr std::size_t kSelectedRows = 8;

/// out[i] = (sum over j ascending of x[i][j] * w[j][col[i]]) + bias[col[i]]
/// for R rows x[i] = x + i * n, each sum seeded with +0.0, as matmul_into
/// and add_row_broadcast give it. matmul_into skips exactly-zero x terms;
/// here they add their product, which for a finite weight is ±0.0 and
/// leaves a sum that is never -0.0 unchanged.
template <std::size_t R>
void selected_rows(const double* x, std::size_t n, const double* w,
                   std::size_t stride, const std::size_t* col,
                   const double* bias, double* out) noexcept {
  double s[R];
  const double* wc[R];
  for (std::size_t i = 0; i < R; ++i) {
    s[i] = 0.0;
    wc[i] = w + col[i];
  }
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i < R; ++i)
      s[i] += x[i * n + j] * wc[i][j * stride];
  for (std::size_t i = 0; i < R; ++i) out[i] = s[i] + bias[col[i]];
}

}  // namespace

void Dense::forward_selected(const Matrix& input,
                             std::span<const std::size_t> cols,
                             std::vector<double>& out) {
  FEDPOWER_EXPECTS(input.cols() == in_);
  FEDPOWER_EXPECTS(cols.size() == input.rows());
  expect_columns(cols);
  const std::size_t rows = input.rows();
  out.resize(rows);
  // A zero input times an infinite or NaN weight is a NaN that matmul_into
  // skips, so a diverged layer takes the full pass and reads its columns.
  if (!std::all_of(w_.data().begin(), w_.data().end(),
                   [](double v) { return std::isfinite(v); })) {
    const Matrix& full = forward(input);
    for (std::size_t r = 0; r < rows; ++r) out[r] = full(r, cols[r]);
    return;
  }
  input_ = input;
  const double* x = input_.data().data();
  const double* w = w_.data().data();
  const double* b = b_.data().data();
  std::size_t r = 0;
  for (; r + kSelectedRows <= rows; r += kSelectedRows)
    selected_rows<kSelectedRows>(x + r * in_, in_, w, out_, cols.data() + r, b,
                                 out.data() + r);
  for (; r < rows; ++r)
    selected_rows<1>(x + r * in_, in_, w, out_, cols.data() + r, b,
                     out.data() + r);
}

const Matrix& Dense::backward_selected(std::span<const std::size_t> cols,
                                       std::span<const double> grad) {
  accumulate_selected_grads(cols, grad);
  const std::size_t rows = input_.rows();
  grad_input_.resize(rows, in_);
  const double* w = w_.data().data();
  double* gi = grad_input_.data().data();
  // Row r of grad * W^T has the one term grad[r] * W[j][cols[r]], added to
  // +0.0 as matmul_transpose adds it (so a -0.0 product gives +0.0), or no
  // term when grad[r] is zero, which its compaction skips.
  for (std::size_t r = 0; r < rows; ++r) {
    const double g = grad[r];
    const double* wc = w + cols[r];
    double* out = gi + r * in_;
    if (g == 0.0) {
      std::fill(out, out + in_, 0.0);
      continue;
    }
    for (std::size_t j = 0; j < in_; ++j) out[j] = 0.0 + g * wc[j * out_];
  }
  return grad_input_;
}

void Dense::accumulate_selected_grads(std::span<const std::size_t> cols,
                                      std::span<const double> grad) {
  const std::size_t rows = input_.rows();
  FEDPOWER_EXPECTS(cols.size() == rows && grad.size() == rows);
  expect_columns(cols);
  step_gw_.resize(in_, out_);
  step_gb_.resize(1, out_);
  std::fill(step_gw_.data().begin(), step_gw_.data().end(), 0.0);
  std::fill(step_gb_.data().begin(), step_gb_.data().end(), 0.0);
  const double* x = input_.data().data();
  double* gw = step_gw_.data().data();
  double* gb = step_gb_.data().data();
  // Column cols[r] of x^T * grad gains grad[r] * x[r], in ascending r as
  // transpose_matmul adds it, and the bias gradient gains grad[r] as
  // column_sums adds it. A zero grad[r] adds nothing to either: the
  // compaction skips it, and ±0.0 leaves a sum seeded with +0.0 unchanged.
  for (std::size_t r = 0; r < rows; ++r) {
    const double g = grad[r];
    if (g == 0.0) continue;
    const double* xr = x + r * in_;
    double* column = gw + cols[r];
    for (std::size_t j = 0; j < in_; ++j) column[j * out_] += g * xr[j];
    gb[cols[r]] += g;
  }
  add_step_grads();
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

bool Dense::write_params(ckpt::Writer& out, ParamFormat format) const {
  if (format == ParamFormat::kF32)
    return out.f32_block(w_.data()) && out.f32_block(b_.data());
  out.f64_block(w_.data());
  out.f64_block(b_.data());
  return true;
}

void Dense::read_params(ckpt::Reader& in, ParamFormat format) {
  if (format == ParamFormat::kF32) {
    in.f32_block_into(w_.data());
    in.f32_block_into(b_.data());
    return;
  }
  in.f64_block_into(w_.data());
  in.f64_block_into(b_.data());
}

void Dense::copy_grads_to(std::span<double> dst) const {
  FEDPOWER_EXPECTS(dst.size() == param_count());
  if (gw_.empty()) {  // no backward pass yet: the gradients are zero
    std::fill(dst.begin(), dst.end(), 0.0);
    return;
  }
  std::copy(gw_.data().begin(), gw_.data().end(), dst.begin());
  std::copy(gb_.data().begin(), gb_.data().end(),
            dst.begin() + static_cast<std::ptrdiff_t>(gw_.size()));
}

void Dense::zero_grads() noexcept {
  std::fill(gw_.data().begin(), gw_.data().end(), 0.0);
  std::fill(gb_.data().begin(), gb_.data().end(), 0.0);
}

void Dense::release_workspaces() noexcept {
  gw_ = Matrix();
  gb_ = Matrix();
  input_ = Matrix();
  output_ = Matrix();
  grad_input_ = Matrix();
  step_gw_ = Matrix();
  step_gb_ = Matrix();
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::make_unique<Dense>(*this);
}

}  // namespace fedpower::nn
