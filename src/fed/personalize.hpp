// Personalized federation: share the network body, keep a private head.
//
// The paper's future-work section names "varying objectives/user
// preferences" across devices. Full federated averaging forces one policy
// on everyone, which is wrong when, e.g., devices have different power
// budgets. A standard remedy (FedPer, Arivazhagan et al.) averages only a
// shared prefix of the parameter vector — the representation — while each
// device keeps its own output head that encodes its private objective.
//
// PersonalizedClient is a decorator over any FederatedClient: on
// receive_global it installs only the shared coordinates and retains the
// wrapped client's own values elsewhere. The server needs no changes (it
// may average the private coordinates too; they are simply never adopted).
#pragma once

#include <vector>

#include "fed/federation.hpp"
#include "util/assert.hpp"

namespace fedpower::fed {

class PersonalizedClient final : public FederatedClient {
 public:
  /// inner is non-owning; shared_mask[i] == true means parameter i is
  /// federated, false means it stays device-private.
  PersonalizedClient(FederatedClient* inner, std::vector<bool> shared_mask);

  void receive_global(std::span<const double> params) override;
  std::vector<double> local_parameters() const override {
    return inner_->local_parameters();
  }
  void copy_local_parameters_to(std::vector<double>& out) const override {
    inner_->copy_local_parameters_to(out);
  }
  void run_local_round() override { inner_->run_local_round(); }
  std::size_t local_sample_count() const override {
    return inner_->local_sample_count();
  }

  const std::vector<bool>& shared_mask() const noexcept { return mask_; }
  std::size_t shared_count() const noexcept { return shared_count_; }

 private:
  FederatedClient* inner_;
  std::vector<bool> mask_;
  std::size_t shared_count_;
  std::vector<double> merged_;  // receive_global's scratch, reused
};

/// Mask for the usual split of an MLP parameter vector: everything shared
/// except the last head_params coordinates (the output layer, W then b in
/// our flat layout).
std::vector<bool> shared_body_mask(std::size_t total_params,
                                   std::size_t head_params);

}  // namespace fedpower::fed
