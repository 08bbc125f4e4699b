#include "fed/dp.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace fedpower::fed {

double l2_norm(std::span<const double> v) noexcept {
  double sum_sq = 0.0;
  for (const double x : v) sum_sq += x * x;
  return std::sqrt(sum_sq);
}

namespace {

/// clip_to_norm() in place.
void clip_in_place(std::span<double> v, double max_norm) {
  FEDPOWER_EXPECTS(max_norm > 0.0);
  const double norm = l2_norm(v);
  if (norm > max_norm) {
    const double scale = max_norm / norm;
    for (double& x : v) x *= scale;
  }
}

}  // namespace

std::vector<double> clip_to_norm(std::vector<double> v, double max_norm) {
  clip_in_place(v, max_norm);
  return v;
}

DpClient::DpClient(FederatedClient* inner, DpConfig config)
    : inner_(inner), config_(config), rng_(config.seed) {
  FEDPOWER_EXPECTS(inner != nullptr);
  FEDPOWER_EXPECTS(config.clip_norm > 0.0);
  FEDPOWER_EXPECTS(config.noise_multiplier >= 0.0);
}

void DpClient::receive_global(std::span<const double> params) {
  anchor_.assign(params.begin(), params.end());
  inner_->receive_global(params);
}

std::vector<double> DpClient::local_parameters() const {
  std::vector<double> upload;
  copy_local_parameters_to(upload);
  return upload;
}

void DpClient::copy_local_parameters_to(std::vector<double>& out) const {
  inner_->copy_local_parameters_to(out);
  if (anchor_.empty()) {
    // No global model received yet (round 0 initialization): nothing to
    // privatize an update against; upload as-is.
    last_update_norm_ = 0.0;
    return;
  }
  FEDPOWER_EXPECTS(out.size() == anchor_.size());
  // out holds the raw model, then the update, then the upload.
  for (std::size_t i = 0; i < out.size(); ++i) out[i] -= anchor_[i];
  last_update_norm_ = l2_norm(out);
  clip_in_place(out, config_.clip_norm);
  if (config_.noise_multiplier > 0.0) {
    const double sigma = config_.noise_multiplier * config_.clip_norm;
    for (double& x : out) x += rng_.normal(0.0, sigma);
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = anchor_[i] + out[i];
}

}  // namespace fedpower::fed
