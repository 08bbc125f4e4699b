// Differentially private federated updates (DP-FedAvg style).
//
// Sharing model weights leaks less than sharing traces, but gradients can
// still memorize training data. The standard hardening is to privatize the
// per-round *update*: clip its L2 norm to a bound C and add Gaussian noise
// z * C before upload. DpClient decorates any FederatedClient with exactly
// that; the privacy/utility trade-off is measured in
// bench_ablation_privacy.
#pragma once

#include <span>
#include <vector>

#include "fed/federation.hpp"
#include "util/rng.hpp"

namespace fedpower::fed {

struct DpConfig {
  /// L2 clipping bound for the round update (theta_local - theta_global).
  double clip_norm = 1.0;
  /// Gaussian noise standard deviation as a multiple of clip_norm;
  /// 0 disables noise (clipping still applies).
  double noise_multiplier = 0.0;
  std::uint64_t seed = 0;
};

/// L2 norm of a vector.
[[nodiscard]] double l2_norm(std::span<const double> v) noexcept;

/// Returns v scaled so its L2 norm is at most max_norm (identity if it
/// already is). Requires max_norm > 0.
[[nodiscard]] std::vector<double> clip_to_norm(std::vector<double> v, double max_norm);

class DpClient final : public FederatedClient {
 public:
  /// inner is non-owning and must outlive the decorator.
  DpClient(FederatedClient* inner, DpConfig config);

  void receive_global(std::span<const double> params) override;
  std::vector<double> local_parameters() const override;
  /// The privatized upload, formed in out itself: the inner model is
  /// copied in, turned into the update, clipped, noised and re-anchored
  /// there, so an upload allocates nothing once out has its size.
  void copy_local_parameters_to(std::vector<double>& out) const override;
  void run_local_round() override { inner_->run_local_round(); }
  std::size_t local_sample_count() const override {
    return inner_->local_sample_count();
  }

  /// L2 norm of the most recent raw (pre-clip) update; 0 before the first
  /// upload. Exposed for tests and calibration of clip_norm.
  [[nodiscard]] double last_update_norm() const noexcept { return last_update_norm_; }

  [[nodiscard]] const DpConfig& config() const noexcept { return config_; }

 private:
  FederatedClient* inner_;
  DpConfig config_;
  mutable util::Rng rng_;
  std::vector<double> anchor_;  // last received global model
  mutable double last_update_norm_ = 0.0;
};

}  // namespace fedpower::fed
