#include "nn/optimizer.hpp"

#include <cmath>

#include "ckpt/fields.hpp"
#include "util/assert.hpp"

namespace fedpower::nn {

Sgd::Sgd(double learning_rate, double momentum)
    : lr_(learning_rate), momentum_(momentum) {
  FEDPOWER_EXPECTS(learning_rate > 0.0);
  FEDPOWER_EXPECTS(momentum >= 0.0 && momentum < 1.0);
}

void Sgd::step(std::vector<double>& params, const std::vector<double>& grads) {
  FEDPOWER_EXPECTS(params.size() == grads.size());
  if (momentum_ == 0.0) {
    for (std::size_t i = 0; i < params.size(); ++i)
      params[i] -= lr_ * grads[i];
    return;
  }
  if (velocity_.size() != params.size()) velocity_.assign(params.size(), 0.0);
  for (std::size_t i = 0; i < params.size(); ++i) {
    velocity_[i] = momentum_ * velocity_[i] + grads[i];
    params[i] -= lr_ * velocity_[i];
  }
}

void Sgd::reset() noexcept { velocity_.clear(); }

namespace {
constexpr ckpt::Tag kSgdTag{'S', 'G', 'D', '0'};
constexpr ckpt::Tag kAdamTag{'A', 'D', 'A', 'M'};
}  // namespace

template <class Self, class Io>
void Sgd::fields(Self& s, Io& io) {
  io.tag(kSgdTag, "Sgd optimizer");
  io.vec(s.velocity_);
}

FEDPOWER_CKPT_FIELDS(Sgd)

Adam::Adam(double learning_rate, double beta1, double beta2, double epsilon)
    : lr_(learning_rate), beta1_(beta1), beta2_(beta2), epsilon_(epsilon) {
  FEDPOWER_EXPECTS(learning_rate > 0.0);
  FEDPOWER_EXPECTS(beta1 >= 0.0 && beta1 < 1.0);
  FEDPOWER_EXPECTS(beta2 >= 0.0 && beta2 < 1.0);
  FEDPOWER_EXPECTS(epsilon > 0.0);
}

void Adam::step(std::vector<double>& params, const std::vector<double>& grads) {
  FEDPOWER_EXPECTS(params.size() == grads.size());
  if (m_.size() != params.size()) {
    m_.assign(params.size(), 0.0);
    v_.assign(params.size(), 0.0);
    t_ = 0;
  }
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  // Locals for every operand, so the compiler sees that the stores cannot
  // change them, and -fno-math-errno on this file (src/nn/CMakeLists.txt),
  // so std::sqrt is the bare instruction: with both, the loop vectorizes.
  // Each element's arithmetic is unchanged, and IEEE sqrt and division are
  // correctly rounded, so the results are too.
  const std::size_t n = params.size();
  double* p = params.data();
  const double* g = grads.data();
  double* m = m_.data();
  double* v = v_.data();
  const double beta1 = beta1_;
  const double beta2 = beta2_;
  const double lr = lr_;
  const double epsilon = epsilon_;
  for (std::size_t i = 0; i < n; ++i) {
    m[i] = beta1 * m[i] + (1.0 - beta1) * g[i];
    v[i] = beta2 * v[i] + (1.0 - beta2) * g[i] * g[i];
    const double m_hat = m[i] / bc1;
    const double v_hat = v[i] / bc2;
    p[i] -= lr * m_hat / (std::sqrt(v_hat) + epsilon);
  }
}

void Adam::reset() noexcept {
  m_.clear();
  v_.clear();
  t_ = 0;
}

void Adam::release() noexcept {
  m_ = {};
  v_ = {};
  t_ = 0;
}

template <class Self, class Io>
void Adam::fields(Self& s, Io& io) {
  io.tag(kAdamTag, "Adam optimizer");
  io.u64(s.t_);
  // An optimizer that already stepped knows its parameter dimension; a
  // snapshot of a different dimension belongs to a different model. The
  // moments are read into the optimizer's own storage.
  const std::size_t tracked = s.m_.size();
  io.vec(s.m_);
  io.vec(s.v_);
  io.check(s.m_.size() == s.v_.size(), "has mismatched moment vectors");
  io.check(tracked == 0 || s.m_.empty() || s.m_.size() == tracked,
           "is for another parameter count than this optimizer tracks");
}

FEDPOWER_CKPT_FIELDS(Adam)

}  // namespace fedpower::nn
