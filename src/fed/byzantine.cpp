#include "fed/byzantine.hpp"

#include <cmath>
#include <string>

#include "ckpt/errors.hpp"
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

void ByzantineClient::save_state(ckpt::Writer& out) const {
  write_tag(out, kByzantineTag);
  out.u64(rounds_seen_);
  out.u64(history_.size());
  for (const std::vector<double>& model : history_) out.vec_f64(model);
}

void ByzantineClient::restore_state(ckpt::Reader& in) {
  expect_tag(in, kByzantineTag, "byzantine client");
  rounds_seen_ = in.u64();
  const std::uint64_t entries = in.u64();
  if (entries > config_.stale_rounds)
    throw ckpt::StateMismatchError(
        "byzantine snapshot holds " + std::to_string(entries) +
        " replay model(s), this config's window is " +
        std::to_string(config_.stale_rounds));
  history_.clear();
  for (std::uint64_t e = 0; e < entries; ++e)
    history_.push_back(in.vec_f64());
}

}  // namespace fedpower::fed
