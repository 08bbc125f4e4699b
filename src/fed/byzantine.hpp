// Client-side fault and attack models for robustness experiments
// (DESIGN.md §10).
//
// ByzantineClient wraps an honest FederatedClient and corrupts what the
// server sees, leaving the inner client's actual learning untouched — the
// attack lives purely in the uplink path, exactly where a compromised
// device (or a flaky serializer) would sit. The wrapper is deterministic:
// given the same inner client and round sequence it produces bit-identical
// uploads, so attacked runs stay reproducible and checkpointable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/federation.hpp"

namespace fedpower::fed {

/// What a compromised client uploads instead of its honest local model.
enum class UploadAttack : std::uint8_t {
  kNone = 0,        ///< honest passthrough
  kSignFlip = 1,    ///< upload -|scale| * theta (gradient-reversal poison)
  kScale = 2,       ///< upload +|scale| * theta (norm-inflation poison)
  kStaleReplay = 3, ///< upload the model from `stale_rounds` rounds ago
};

/// Per-client attack plan. A default-constructed config is honest.
struct ClientFaultConfig {
  UploadAttack attack = UploadAttack::kNone;
  /// Magnitude for kSignFlip / kScale (the sign comes from the attack).
  double scale = 25.0;
  /// Replay lag for kStaleReplay; clamped to the history actually seen.
  std::size_t stale_rounds = 5;
  /// First local round (0-based) at which the attack activates; earlier
  /// rounds are honest — a sleeper that turns after trust is built.
  std::size_t start_round = 0;
};

/// FederatedClient decorator that applies a ClientFaultConfig to the
/// uplink. Non-owning: the inner client must outlive the wrapper.
class ByzantineClient final : public FederatedClient {
 public:
  ByzantineClient(FederatedClient* inner, ClientFaultConfig config);

  /// Re-arms the wrapper with config as if newly constructed around the
  /// same inner client: no rounds seen, no replay history.
  void reset(ClientFaultConfig config);

  void receive_global(std::span<const double> params) override;
  std::vector<double> local_parameters() const override;
  void run_local_round() override;
  std::size_t local_sample_count() const override;

  const ClientFaultConfig& fault_config() const noexcept { return config_; }
  /// Local rounds the wrapper has observed (drives start_round gating).
  std::size_t rounds_seen() const noexcept { return rounds_seen_; }
  /// True once rounds_seen() has reached start_round for a real attack.
  bool attack_active() const noexcept {
    return config_.attack != UploadAttack::kNone &&
           rounds_seen_ >= config_.start_round;
  }

  /// Serializes the wrapper's attack state — round counter and replay
  /// history — under tag BYZC; the inner client checkpoints itself.
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

 private:
  template <class Self, class Io> static void fields(Self& s, Io& io);

  FederatedClient* inner_;  // lint: ckpt-skip(non-owning wrapped client; checkpoints itself)
  ClientFaultConfig config_;
  std::size_t rounds_seen_ = 0;
  /// Honest models captured after each local round (bounded to
  /// stale_rounds entries); front() is the stalest.
  std::deque<std::vector<double>> history_;
};

}  // namespace fedpower::fed
