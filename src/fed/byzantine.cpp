#include "fed/byzantine.hpp"

#include <cmath>

#include "ckpt/fields.hpp"
#include "util/assert.hpp"

namespace fedpower::fed {

ByzantineClient::ByzantineClient(FederatedClient* inner,
                                 ClientFaultConfig config)
    : inner_(inner) {
  FEDPOWER_EXPECTS(inner_ != nullptr);
  reset(config);
}

void ByzantineClient::reset(ClientFaultConfig config) {
  FEDPOWER_EXPECTS(std::isfinite(config.scale));
  if (config.attack == UploadAttack::kStaleReplay)
    FEDPOWER_EXPECTS(config.stale_rounds >= 1);
  config_ = config;
  rounds_seen_ = 0;
  history_.clear();
}

void ByzantineClient::receive_global(std::span<const double> params) {
  inner_->receive_global(params);
}

std::size_t ByzantineClient::local_sample_count() const {
  return inner_->local_sample_count();
}

void ByzantineClient::run_local_round() {
  inner_->run_local_round();
  ++rounds_seen_;
  if (config_.attack == UploadAttack::kStaleReplay) {
    // Record the honest model even before start_round, so the replay has
    // genuinely stale material the moment the attack activates.
    history_.push_back(inner_->local_parameters());
    while (history_.size() > config_.stale_rounds) history_.pop_front();
  }
}

std::vector<double> ByzantineClient::local_parameters() const {
  std::vector<double> params = inner_->local_parameters();
  if (!attack_active()) return params;
  switch (config_.attack) {
    case UploadAttack::kNone:
      break;
    case UploadAttack::kSignFlip: {
      const double factor = -std::fabs(config_.scale);
      for (double& p : params) p *= factor;
      break;
    }
    case UploadAttack::kScale: {
      const double factor = std::fabs(config_.scale);
      for (double& p : params) p *= factor;
      break;
    }
    case UploadAttack::kStaleReplay:
      // Nothing recorded yet (attack active from round 0): stay honest
      // rather than upload an empty model the server would drop.
      if (!history_.empty()) return history_.front();
      break;
  }
  return params;
}

namespace {
constexpr ckpt::Tag kByzantineTag{'B', 'Y', 'Z', 'C'};
}  // namespace

template <class Self, class Io>
void ByzantineClient::fields(Self& s, Io& io) {
  io.tag(kByzantineTag, "byzantine client");
  io.u64(s.rounds_seen_);
  io.list(s.history_, [&](auto& model) { io.vec(model); });
  io.check(s.history_.size() <= s.config_.stale_rounds,
           "holds more replay models than this config's window");
}

FEDPOWER_CKPT_FIELDS(ByzantineClient)

}  // namespace fedpower::fed
