// Layer abstraction for the small feed-forward networks used as DVFS
// policies. Layers cache whatever they need from forward() so that a
// subsequent backward() can compute gradients; the usual
// forward -> backward -> optimizer step cycle applies.
//
// Each layer owns its output and gradient workspaces, and forward() and
// backward() return references into them. A returned reference stays valid
// until the next forward() (output) or backward() (input gradient) on the
// same layer, which overwrites it in place; copy the Matrix to keep it
// longer. Workspaces grow to the largest batch seen and are then reused, so
// a warm layer allocates nothing (DESIGN.md §5).
#pragma once

#include <memory>
#include <span>

#include "ckpt/binary_io.hpp"
#include "nn/matrix.hpp"

namespace fedpower::nn {

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for a [batch x in] input and caches the
  /// activations required by backward(). The result is the layer's output
  /// workspace.
  virtual const Matrix& forward(const Matrix& input) = 0;

  /// Propagates [batch x out] output gradients back to the input and
  /// accumulates parameter gradients. Must follow a matching forward(). The
  /// result is the layer's input-gradient workspace; grad_output must not be
  /// that workspace.
  virtual const Matrix& backward(const Matrix& grad_output) = 0;

  /// Number of trainable scalars in this layer (0 for activations).
  virtual std::size_t param_count() const noexcept = 0;

  /// Copies parameters into dst (size must equal param_count()).
  virtual void copy_params_to(std::span<double> dst) const = 0;

  /// Overwrites parameters from src (size must equal param_count()).
  virtual void set_params_from(std::span<const double> src) = 0;

  /// Appends the parameters to out as param_count() doubles in
  /// copy_params_to() order, with no length prefix (Writer::f64_block).
  virtual void write_params(ckpt::Writer& out) const = 0;

  /// The read side of write_params(): overwrites the parameters.
  virtual void read_params(ckpt::Reader& in) = 0;

  /// Copies accumulated gradients into dst (size must equal param_count()).
  virtual void copy_grads_to(std::span<double> dst) const = 0;

  /// Clears accumulated parameter gradients.
  virtual void zero_grads() noexcept = 0;

  /// Polymorphic deep copy (used when clients fork the global model).
  virtual std::unique_ptr<Layer> clone() const = 0;
};

}  // namespace fedpower::nn
