// Sequential multi-layer perceptron with flat parameter access. The flat
// view is what makes federated averaging trivial: the server averages plain
// vectors without knowing the network topology.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/dense.hpp"
#include "nn/layer.hpp"

namespace fedpower::nn {

class Mlp {
 public:
  Mlp() = default;
  explicit Mlp(std::vector<std::unique_ptr<Layer>> layers);

  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) noexcept = default;
  Mlp& operator=(Mlp&&) noexcept = default;

  /// Runs the full stack; caches per-layer activations for backward().
  /// Returns the last layer's output workspace, valid until the next
  /// forward() (Layer gives the lifetime rule).
  const Matrix& forward(const Matrix& input);

  /// forward() of the one-row matrix x, bit for bit, written to out (the
  /// last layer's width). Const and workspace-free: the rows between the
  /// layers live in a per-thread scratch, so a warm call allocates nothing
  /// and concurrent calls on one model do not race.
  void forward_row(std::span<const double> x, std::span<double> out) const;

  /// Back-propagates dLoss/dOutput, accumulating gradients in every layer,
  /// and returns dLoss/dInput: the first layer's input-gradient workspace,
  /// valid until the next backward().
  const Matrix& backward(const Matrix& grad_output);

  /// Selected-column forward for training on the pulled arm: values[r] is
  /// forward(input)(r, cols[r]), bit for bit. The hidden layers run their
  /// full forward(); the head, which must be a Dense layer, computes only
  /// the selected columns. values is resized.
  void forward_selected(const Matrix& input, std::span<const std::size_t> cols,
                        std::vector<double>& values);

  /// Accumulates in every layer the parameter gradients that backward()
  /// gives for the gradient holding grad[r] at (r, cols[r]) and zero
  /// elsewhere, bit for bit for finite data. Must follow forward_selected()
  /// with the same cols. The first layer forms no dLoss/dInput, so there is
  /// nothing to return.
  void backward_selected(std::span<const std::size_t> cols,
                         std::span<const double> grad);

  std::size_t layer_count() const noexcept { return layers_.size(); }
  std::size_t param_count() const noexcept;

  /// Gathers all parameters into one flat vector (layer order, W then b).
  std::vector<double> parameters() const;

  /// parameters() into caller-owned storage of param_count() entries.
  void copy_parameters_to(std::span<double> dst) const;

  /// Scatters a flat vector back into the layers.
  void set_parameters(std::span<const double> params);

  /// Writes parameters() to out as a block of param_count() values with
  /// no length prefix, straight from the layers, and returns whether they
  /// read back with their bits (Layer::write_params);
  /// read_parameters() is its inverse.
  bool write_parameters(ckpt::Writer& out, ParamFormat format) const;
  void read_parameters(ckpt::Reader& in, ParamFormat format);

  /// Gathers accumulated gradients (same layout as parameters()).
  std::vector<double> gradients() const;

  /// gradients() into caller-owned storage of param_count() entries.
  void copy_gradients_to(std::span<double> dst) const;

  void zero_gradients() noexcept;

  /// Frees every layer's gradient accumulators and workspaces
  /// (Layer::release_workspaces).
  void release_workspaces() noexcept;

  bool empty() const noexcept { return layers_.empty(); }

 private:
  /// The output layer, which the selected-column path needs to be Dense.
  Dense& selected_head();

  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Builds the paper's policy-network shape: input -> [hidden + ReLU]* ->
/// linear output head. hidden_sizes may be empty for a linear model.
Mlp make_mlp(std::size_t input, const std::vector<std::size_t>& hidden_sizes,
             std::size_t output, util::Rng& rng, Init init = Init::kHe);

/// The number of rng.normal() draws make_mlp makes for this shape and init,
/// so a caller can advance a stream past them with Rng::skip_normals.
std::size_t init_normal_count(std::size_t input,
                              const std::vector<std::size_t>& hidden_sizes,
                              std::size_t output, Init init = Init::kHe);

}  // namespace fedpower::nn
