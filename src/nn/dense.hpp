// Fully connected layer: y = x W + b, with W stored [in x out].
//
// Besides the full forward/backward, a Dense layer runs as a policy head on
// the selected-column path: forward_selected() computes only column
// cols[r] of each output row r, and backward_selected() back-propagates a
// gradient that is nonzero only there. For finite data both give, bit for
// bit, what the full pass gives at those positions (DESIGN.md §5 item 6
// has the argument, and what holds for non-finite data).
#pragma once

#include <vector>

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
  void forward_row(std::span<const double> in,
                   std::span<double> out) const override;
  std::size_t output_width(std::size_t) const noexcept override {
    return out_;
  }

  /// The parameter-gradient half of backward(): adds this step's dL/dW and
  /// dL/db to the accumulated gradients without forming dL/dinput. Must
  /// follow a matching forward().
  void accumulate_grads(const Matrix& grad_output);

  /// out[r] = forward(input)(r, cols[r]) for every row r, bit for bit,
  /// without computing the other columns. Caches the input as forward()
  /// does. A layer with a non-finite weight runs forward() itself and
  /// reads the columns from its output. out is resized.
  void forward_selected(const Matrix& input, std::span<const std::size_t> cols,
                        std::vector<double>& out);

  /// backward() for the [batch x out] gradient that holds grad[r] at
  /// (r, cols[r]) and zero elsewhere, bit for bit, without materializing
  /// it. Must follow a matching forward_selected() (or forward()).
  const Matrix& backward_selected(std::span<const std::size_t> cols,
                                  std::span<const double> grad);

  /// The parameter-gradient half of backward_selected().
  void accumulate_selected_grads(std::span<const std::size_t> cols,
                                 std::span<const double> grad);

  std::size_t param_count() const noexcept override;
  void copy_params_to(std::span<double> dst) const override;
  void set_params_from(std::span<const double> src) override;
  bool write_params(ckpt::Writer& out, ParamFormat format) const override;
  void read_params(ckpt::Reader& in, ParamFormat format) override;
  void copy_grads_to(std::span<double> dst) const override;
  void zero_grads() noexcept override;
  void release_workspaces() noexcept override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t in_features() const noexcept { return in_; }
  std::size_t out_features() const noexcept { return out_; }

  const Matrix& weights() const noexcept { return w_; }
  const Matrix& bias() const noexcept { return b_; }
  /// The accumulated gradients: empty (0 x 0) until the first backward
  /// pass sizes them; copy_grads_to() reports zeros until then.
  const Matrix& weight_grads() const noexcept { return gw_; }
  const Matrix& bias_grads() const noexcept { return gb_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Matrix w_;       // [in x out]
  Matrix b_;       // [1 x out]
  Matrix gw_;      // accumulated dL/dW; empty until the first backward
  Matrix gb_;      // accumulated dL/db; empty until the first backward
  // Workspaces (Layer gives their lifetime rule).
  Matrix input_;       // forward input, cached for backward
  Matrix output_;      // forward result
  Matrix grad_input_;  // backward result, dL/dinput
  Matrix step_gw_;     // this backward's dL/dW, added to gw_
  Matrix step_gb_;     // this backward's dL/db, added to gb_

  /// Adds step_gw_/step_gb_ into gw_/gb_; every backward flavour ends here.
  void add_step_grads();
  /// Aborts unless every cols[r] names an output column.
  void expect_columns(std::span<const std::size_t> cols) const;
};

}  // namespace fedpower::nn
