// First-order optimizers operating on flat parameter/gradient vectors.
// The paper trains the policy network with Adam (§III-C).
#pragma once

#include <vector>

#include "ckpt/binary_io.hpp"

namespace fedpower::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// Applies one update step in place. params and grads must have equal,
  /// constant size across calls (the optimizer keeps per-parameter state).
  virtual void step(std::vector<double>& params,
                    const std::vector<double>& grads) = 0;

  /// Clears momentum/moment state (e.g. when a fresh global model arrives
  /// and the old curvature estimates no longer apply).
  virtual void reset() noexcept = 0;

  /// Serializes the mutable state (momenta, step counters) — not the
  /// hyperparameters, which are reconstructed from config on resume.
  virtual void save_state(ckpt::Writer& out) const = 0;

  /// Restores state saved by the same concrete type; the section tag makes
  /// restoring an Adam snapshot into an Sgd a named error.
  virtual void restore_state(ckpt::Reader& in) = 0;
};

/// Plain stochastic gradient descent with optional momentum.
class Sgd final : public Optimizer {
 public:
  explicit Sgd(double learning_rate, double momentum = 0.0);

  void step(std::vector<double>& params,
            const std::vector<double>& grads) override;
  void reset() noexcept override;
  void save_state(ckpt::Writer& out) const override;
  void restore_state(ckpt::Reader& in) override;

  double learning_rate() const noexcept { return lr_; }

 private:
  template <class Self, class Io> static void fields(Self& s, Io& io);

  double lr_;        // lint: ckpt-skip(hyperparameter fixed at construction)
  double momentum_;  // lint: ckpt-skip(hyperparameter fixed at construction)
  std::vector<double> velocity_;
};

/// Adam (Kingma & Ba, ICLR'15) with bias correction.
class Adam final : public Optimizer {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8);

  void step(std::vector<double>& params,
            const std::vector<double>& grads) override;
  void reset() noexcept override;
  /// reset() that also frees the moments' storage, which reset() keeps
  /// for the next step.
  void release() noexcept;
  void save_state(ckpt::Writer& out) const override;
  void restore_state(ckpt::Reader& in) override;

  double learning_rate() const noexcept { return lr_; }
  long step_count() const noexcept { return t_; }

 private:
  template <class Self, class Io> static void fields(Self& s, Io& io);

  double lr_;       // lint: ckpt-skip(hyperparameter fixed at construction)
  double beta1_;    // lint: ckpt-skip(hyperparameter fixed at construction)
  double beta2_;    // lint: ckpt-skip(hyperparameter fixed at construction)
  double epsilon_;  // lint: ckpt-skip(hyperparameter fixed at construction)
  long t_ = 0;
  std::vector<double> m_;
  std::vector<double> v_;
};

}  // namespace fedpower::nn
