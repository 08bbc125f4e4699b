// Deterministic fault injection for any Transport.
//
// Real edge fleets lose devices to network faults constantly; reproducing
// that against a kernel TCP stack is slow and nondeterministic. This
// decorator wraps any Transport and injects the four fault classes the
// federation layer must survive — dropped transfers, delayed delivery,
// truncated payloads and multi-transfer disconnect outages — from a seeded
// RNG, so a dropout experiment is bit-for-bit reproducible: the same seed
// produces the same fault schedule, hence the same set of dropped clients.
//
// Exactly one uniform draw is consumed per transfer regardless of the
// outcome, which keeps the schedule a pure function of (seed, transfer
// index) — faults never perturb later draws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/transport.hpp"
#include "util/rng.hpp"

namespace fedpower::fed {

struct FaultInjectionConfig {
  /// Probability the transfer is lost outright (throws TransportError).
  double drop_probability = 0.0;
  /// Probability the transfer succeeds but arrives late (adds
  /// injected_delay_s to the injected-latency account).
  double delay_probability = 0.0;
  /// Probability the delivered payload is cut to half its bytes; the
  /// receiving codec detects the damage and the federation drops the
  /// client for the round.
  double truncate_probability = 0.0;
  /// Probability the connection dies: this transfer and the next
  /// outage_transfers transfers all fail before the line heals.
  double disconnect_probability = 0.0;
  /// Latency added by each delayed transfer.
  double injected_delay_s = 0.05;
  /// Failed transfers following a disconnect before auto-reconnect.
  std::size_t outage_transfers = 2;
  std::uint64_t seed = 0;
};

struct FaultInjectionStats {
  std::size_t attempted = 0;       ///< transfers requested by the caller
  std::size_t delivered = 0;       ///< transfers that reached the peer intact
  std::size_t drops = 0;           ///< injected one-shot losses
  std::size_t delays = 0;          ///< injected late deliveries
  std::size_t truncations = 0;     ///< injected damaged payloads
  std::size_t disconnects = 0;     ///< injected connection deaths
  std::size_t outage_failures = 0; ///< transfers failed while the line was down
  double injected_delay_s = 0.0;   ///< total latency added by delays
};

/// Decorator that injects seeded faults in front of any Transport.
class FaultInjectingTransport final : public Transport {
 public:
  /// Inner transport is non-owning and must outlive the decorator.
  /// Probabilities must each be in [0, 1] and sum to at most 1.
  FaultInjectingTransport(Transport* inner, FaultInjectionConfig config);

  std::vector<std::uint8_t> transfer(
      Direction direction, std::vector<std::uint8_t> payload) override;

  /// Traffic stats of the inner transport (faulted transfers never reach
  /// it, so these count only real deliveries).
  const TrafficStats& stats() const noexcept override {
    return inner_->stats();
  }

  /// Inner latency plus the delay injected by this decorator, so round
  /// deadlines see delay faults as the lateness they model.
  double cumulative_latency_s() const noexcept override {
    return inner_->cumulative_latency_s() + fault_stats_.injected_delay_s;
  }

  const FaultInjectionStats& fault_stats() const noexcept {
    return fault_stats_;
  }

  /// False while a disconnect outage is in progress.
  bool connected() const noexcept { return outage_remaining_ == 0; }

  /// Serializes the fault schedule's position — RNG stream, in-progress
  /// outage and accumulated stats — under tag FINJ, so a resumed run
  /// injects exactly the faults the uninterrupted run would have.
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

 private:
  template <class Self, class Io> static void fields(Self& s, Io& io);

  Transport* inner_;            // lint: ckpt-skip(non-owning wrapped transport; re-wired on resume)
  FaultInjectionConfig config_;  // lint: ckpt-skip(construction config, fixed for the run)
  util::Rng rng_;
  FaultInjectionStats fault_stats_;
  std::size_t outage_remaining_ = 0;
};

}  // namespace fedpower::fed
