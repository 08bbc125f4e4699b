#include "fed/fault_injection.hpp"

#include "ckpt/fields.hpp"
#include "util/assert.hpp"

namespace fedpower::fed {

namespace {

bool valid_probability(double p) { return p >= 0.0 && p <= 1.0; }

}  // namespace

FaultInjectingTransport::FaultInjectingTransport(Transport* inner,
                                                 FaultInjectionConfig config)
    : inner_(inner), config_(config), rng_(config.seed) {
  FEDPOWER_EXPECTS(inner_ != nullptr);
  FEDPOWER_EXPECTS(valid_probability(config_.drop_probability));
  FEDPOWER_EXPECTS(valid_probability(config_.delay_probability));
  FEDPOWER_EXPECTS(valid_probability(config_.truncate_probability));
  FEDPOWER_EXPECTS(valid_probability(config_.disconnect_probability));
  FEDPOWER_EXPECTS(config_.drop_probability + config_.delay_probability +
                       config_.truncate_probability +
                       config_.disconnect_probability <=
                   1.0);
  FEDPOWER_EXPECTS(config_.injected_delay_s >= 0.0);
}

std::vector<std::uint8_t> FaultInjectingTransport::transfer(
    Direction direction, std::vector<std::uint8_t> payload) {
  ++fault_stats_.attempted;
  // One draw per transfer, consumed before any branching, so the fault
  // schedule depends only on (seed, transfer index).
  const double u = rng_.uniform();

  if (outage_remaining_ > 0) {
    --outage_remaining_;
    ++fault_stats_.outage_failures;
    throw TransportError("fault injection: line down");
  }

  double threshold = config_.drop_probability;
  if (u < threshold) {
    ++fault_stats_.drops;
    throw TransportError("fault injection: transfer dropped");
  }
  threshold += config_.disconnect_probability;
  if (u < threshold) {
    ++fault_stats_.disconnects;
    outage_remaining_ = config_.outage_transfers;
    throw TransportError("fault injection: peer disconnected");
  }
  threshold += config_.truncate_probability;
  if (u < threshold) {
    ++fault_stats_.truncations;
    std::vector<std::uint8_t> damaged =
        inner_->transfer(direction, std::move(payload));
    damaged.resize(damaged.size() / 2);
    return damaged;
  }
  threshold += config_.delay_probability;
  if (u < threshold) {
    ++fault_stats_.delays;
    fault_stats_.injected_delay_s += config_.injected_delay_s;
  }
  ++fault_stats_.delivered;
  return inner_->transfer(direction, std::move(payload));
}

namespace {
constexpr ckpt::Tag kFaultInjectionTag{'F', 'I', 'N', 'J'};
}  // namespace

template <class Self, class Io>
void FaultInjectingTransport::fields(Self& s, Io& io) {
  io.tag(kFaultInjectionTag, "fault-injecting transport");
  io.rng(s.rng_);
  auto& f = s.fault_stats_;
  io.u64(s.outage_remaining_, f.attempted, f.delivered, f.drops, f.delays,
         f.truncations, f.disconnects, f.outage_failures);
  io.f64(f.injected_delay_s);
}

FEDPOWER_CKPT_FIELDS(FaultInjectingTransport)

}  // namespace fedpower::fed
