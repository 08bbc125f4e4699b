#include "rl/drift.hpp"

#include "ckpt/fields.hpp"

namespace fedpower::rl {

DriftMonitor::DriftMonitor(DriftConfig config) : config_(config) {
  FEDPOWER_EXPECTS(config.fast_alpha > 0.0 && config.fast_alpha <= 1.0);
  FEDPOWER_EXPECTS(config.slow_alpha > 0.0 && config.slow_alpha <= 1.0);
  FEDPOWER_EXPECTS(config.fast_alpha > config.slow_alpha);
  FEDPOWER_EXPECTS(config.drop_threshold > 0.0);
}

bool DriftMonitor::observe(double reward) {
  if (samples_ == 0) {
    fast_ = reward;
    slow_ = reward;
  } else {
    fast_ += config_.fast_alpha * (reward - fast_);
    slow_ += config_.slow_alpha * (reward - slow_);
  }
  ++samples_;
  ++since_trigger_;

  if (samples_ < config_.warmup) return false;
  if (since_trigger_ < config_.cooldown) return false;
  if (fast_ < slow_ - config_.drop_threshold) {
    ++detections_;
    since_trigger_ = 0;
    // Re-anchor the slow tracker so the same drop cannot re-trigger
    // immediately after the cooldown.
    slow_ = fast_;
    return true;
  }
  return false;
}

void DriftMonitor::reset() noexcept {
  fast_ = 0.0;
  slow_ = 0.0;
  samples_ = 0;
  since_trigger_ = 0;
  detections_ = 0;
}

namespace {
constexpr ckpt::Tag kDriftTag{'D', 'R', 'F', 'T'};
}  // namespace

template <class Self, class Io>
void DriftMonitor::fields(Self& s, Io& io) {
  io.tag(kDriftTag, "drift monitor");
  io.f64(s.fast_, s.slow_);
  io.u64(s.samples_, s.since_trigger_, s.detections_);
}

FEDPOWER_CKPT_FIELDS(DriftMonitor)

}  // namespace fedpower::rl
