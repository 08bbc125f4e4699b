#include "nn/mlp.hpp"

#include <algorithm>

#include "nn/activation.hpp"

namespace fedpower::nn {

Mlp::Mlp(std::vector<std::unique_ptr<Layer>> layers)
    : layers_(std::move(layers)) {}

Mlp::Mlp(const Mlp& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& layer : other.layers_) layers_.push_back(layer->clone());
}

Mlp& Mlp::operator=(const Mlp& other) {
  if (this == &other) return *this;
  Mlp copy(other);
  layers_ = std::move(copy.layers_);
  return *this;
}

const Matrix& Mlp::forward(const Matrix& input) {
  const Matrix* activation = &input;
  for (const auto& layer : layers_) activation = &layer->forward(*activation);
  return *activation;
}

void Mlp::forward_row(std::span<const double> x,
                      std::span<double> out) const {
  FEDPOWER_EXPECTS(!layers_.empty());
  std::size_t widest = 0;
  std::size_t width = x.size();
  for (const auto& layer : layers_) {
    width = layer->output_width(width);
    widest = std::max(widest, width);
  }
  FEDPOWER_EXPECTS(out.size() == width);
  // Two rows, each as wide as the widest layer: layer i writes the one
  // layer i - 1 did not, and the last layer writes out.
  thread_local std::vector<double> scratch;
  if (scratch.size() < 2 * widest) scratch.resize(2 * widest);
  std::span<const double> in = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    const std::span<double> next =
        i + 1 == layers_.size()
            ? out
            : std::span<double>(scratch).subspan(
                  (i % 2) * widest, layers_[i]->output_width(in.size()));
    layers_[i]->forward_row(in, next);
    in = next;
  }
}

const Matrix& Mlp::backward(const Matrix& grad_output) {
  const Matrix* grad = &grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    grad = &(*it)->backward(*grad);
  return *grad;
}

Dense& Mlp::selected_head() {
  FEDPOWER_EXPECTS(!layers_.empty());
  auto* head = dynamic_cast<Dense*>(layers_.back().get());
  FEDPOWER_EXPECTS(head != nullptr);
  return *head;
}

void Mlp::forward_selected(const Matrix& input,
                           std::span<const std::size_t> cols,
                           std::vector<double>& values) {
  Dense& head = selected_head();
  const Matrix* activation = &input;
  for (std::size_t i = 0; i + 1 < layers_.size(); ++i)
    activation = &layers_[i]->forward(*activation);
  head.forward_selected(*activation, cols, values);
}

void Mlp::backward_selected(std::span<const std::size_t> cols,
                            std::span<const double> grad) {
  Dense& head = selected_head();
  if (layers_.size() == 1) {  // a linear model: the head is the first layer
    head.accumulate_selected_grads(cols, grad);
    return;
  }
  const Matrix* g = &head.backward_selected(cols, grad);
  for (std::size_t i = layers_.size() - 2; i > 0; --i)
    g = &layers_[i]->backward(*g);
  // Nothing reads dLoss/dInput, so a Dense first layer skips forming it.
  if (auto* first = dynamic_cast<Dense*>(layers_.front().get()))
    first->accumulate_grads(*g);
  else
    layers_.front()->backward(*g);
}

std::size_t Mlp::param_count() const noexcept {
  std::size_t total = 0;
  for (const auto& layer : layers_) total += layer->param_count();
  return total;
}

std::vector<double> Mlp::parameters() const {
  std::vector<double> flat(param_count());
  copy_parameters_to(flat);
  return flat;
}

void Mlp::copy_parameters_to(std::span<double> dst) const {
  FEDPOWER_EXPECTS(dst.size() == param_count());
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    const std::size_t n = layer->param_count();
    layer->copy_params_to(dst.subspan(offset, n));
    offset += n;
  }
}

void Mlp::set_parameters(std::span<const double> params) {
  FEDPOWER_EXPECTS(params.size() == param_count());
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    const std::size_t n = layer->param_count();
    layer->set_params_from(params.subspan(offset, n));
    offset += n;
  }
}

bool Mlp::write_parameters(ckpt::Writer& out, ParamFormat format) const {
  for (const auto& layer : layers_)
    if (!layer->write_params(out, format)) return false;
  return true;
}

void Mlp::read_parameters(ckpt::Reader& in, ParamFormat format) {
  for (const auto& layer : layers_) layer->read_params(in, format);
}

std::vector<double> Mlp::gradients() const {
  std::vector<double> flat(param_count());
  copy_gradients_to(flat);
  return flat;
}

void Mlp::copy_gradients_to(std::span<double> dst) const {
  FEDPOWER_EXPECTS(dst.size() == param_count());
  std::size_t offset = 0;
  for (const auto& layer : layers_) {
    const std::size_t n = layer->param_count();
    layer->copy_grads_to(dst.subspan(offset, n));
    offset += n;
  }
}

void Mlp::zero_gradients() noexcept {
  for (const auto& layer : layers_) layer->zero_grads();
}

void Mlp::release_workspaces() noexcept {
  for (const auto& layer : layers_) layer->release_workspaces();
}

namespace {

/// Calls dense(in, out) for every Dense layer make_mlp builds, in build
/// order; make_mlp and init_normal_count share it so they cannot drift.
template <class DenseFn>
void for_each_dense(std::size_t input,
                    const std::vector<std::size_t>& hidden_sizes,
                    std::size_t output, DenseFn&& dense) {
  FEDPOWER_EXPECTS(input > 0 && output > 0);
  std::size_t in = input;
  for (const std::size_t h : hidden_sizes) {
    FEDPOWER_EXPECTS(h > 0);
    dense(in, h);
    in = h;
  }
  dense(in, output);
}

}  // namespace

Mlp make_mlp(std::size_t input, const std::vector<std::size_t>& hidden_sizes,
             std::size_t output, util::Rng& rng, Init init) {
  std::vector<std::unique_ptr<Layer>> layers;
  for_each_dense(input, hidden_sizes, output,
                 [&](std::size_t in, std::size_t out) {
                   // input -> [Dense + ReLU]* -> Dense: a ReLU follows every
                   // Dense layer but the output head.
                   if (!layers.empty())
                     layers.push_back(std::make_unique<Relu>());
                   layers.push_back(
                       std::make_unique<Dense>(in, out, init, rng));
                 });
  return Mlp{std::move(layers)};
}

std::size_t init_normal_count(std::size_t input,
                              const std::vector<std::size_t>& hidden_sizes,
                              std::size_t output, Init init) {
  std::size_t draws = 0;
  // Dense draws one normal per weight unless its init is all-zero.
  for_each_dense(input, hidden_sizes, output,
                 [&](std::size_t in, std::size_t out) {
                   if (init != Init::kZero) draws += in * out;
                 });
  return draws;
}

}  // namespace fedpower::nn
