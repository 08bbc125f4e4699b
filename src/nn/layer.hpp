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
// a warm layer allocates nothing (DESIGN.md §5). Inference on one row runs
// through forward_row() instead, which is const and touches no workspace.
#pragma once

#include <memory>
#include <span>

#include "ckpt/binary_io.hpp"
#include "nn/matrix.hpp"

namespace fedpower::nn {

/// How write_params()/read_params() store each parameter.
enum class ParamFormat {
  kF64,  ///< as doubles (ckpt::Writer::f64_block)
  kF32,  ///< as floats (ckpt::Writer::f32_block): lossless when every
         ///< parameter is float-exact
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output for a [batch x in] input and caches the
  /// activations required by backward(). The result is the layer's output
  /// workspace.
  virtual const Matrix& forward(const Matrix& input) = 0;

  /// forward() of the one-row matrix `in`, bit for bit, written to out
  /// (output_width(in.size()) values; out must not alias in). Reads and
  /// writes no workspace, so backward() does not follow it.
  virtual void forward_row(std::span<const double> in,
                           std::span<double> out) const = 0;

  /// The width of the output row for an input row of in_width values.
  virtual std::size_t output_width(std::size_t in_width) const noexcept = 0;

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

  /// Appends the parameters to out as param_count() values in
  /// copy_params_to() order, with no length prefix. Returns whether they
  /// read back with their bits: always for kF64; for kF32 only when every
  /// parameter is float-exact, else it may return having written part of
  /// the block, which the caller discards.
  virtual bool write_params(ckpt::Writer& out, ParamFormat format) const = 0;

  /// The read side of write_params(): overwrites the parameters.
  virtual void read_params(ckpt::Reader& in, ParamFormat format) = 0;

  /// Copies accumulated gradients into dst (size must equal param_count()).
  virtual void copy_grads_to(std::span<double> dst) const = 0;

  /// Clears accumulated parameter gradients.
  virtual void zero_grads() noexcept = 0;

  /// Frees the gradient accumulators and every workspace, keeping the
  /// parameters: the layer then holds what a freshly built one holds.
  virtual void release_workspaces() noexcept = 0;

  /// Polymorphic deep copy (used when clients fork the global model).
  virtual std::unique_ptr<Layer> clone() const = 0;
};

}  // namespace fedpower::nn
