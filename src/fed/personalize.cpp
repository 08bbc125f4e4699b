#include "fed/personalize.hpp"

#include <algorithm>

namespace fedpower::fed {

PersonalizedClient::PersonalizedClient(FederatedClient* inner,
                                       std::vector<bool> shared_mask)
    : inner_(inner),
      mask_(std::move(shared_mask)),
      shared_count_(static_cast<std::size_t>(
          std::count(mask_.begin(), mask_.end(), true))) {
  FEDPOWER_EXPECTS(inner != nullptr);
  FEDPOWER_EXPECTS(!mask_.empty());
  FEDPOWER_EXPECTS(shared_count_ > 0);  // a fully private client makes no
                                        // sense in a federation
}

void PersonalizedClient::receive_global(std::span<const double> params) {
  FEDPOWER_EXPECTS(params.size() == mask_.size());
  inner_->copy_local_parameters_to(merged_);
  FEDPOWER_EXPECTS(merged_.size() == mask_.size());
  for (std::size_t i = 0; i < mask_.size(); ++i)
    if (mask_[i]) merged_[i] = params[i];
  inner_->receive_global(merged_);
}

std::vector<bool> shared_body_mask(std::size_t total_params,
                                   std::size_t head_params) {
  FEDPOWER_EXPECTS(head_params < total_params);
  std::vector<bool> mask(total_params, true);
  for (std::size_t i = total_params - head_params; i < total_params; ++i)
    mask[i] = false;
  return mask;
}

}  // namespace fedpower::fed
