// Deterministic chaos engine: one seeded RNG stream schedules every fault
// class the soak harness injects (DESIGN.md §13).
//
// The engine is a pure schedule generator. It owns no transports, no
// clients and no server — each begin_round() call advances a single
// xoshiro256++ stream through a FIXED number of draws (one availability
// draw per client, then one shock draw, then at most one shock-target
// draw) and returns a RoundPlan the driver applies: flip ChurnTransport
// links offline/online, abandon a device's application via
// Processor::reset_app(). Because the draw count per round is a pure
// function of the configuration and the client count, the stream position
// after round R is identical on every replay of the same seed — the
// chaos-seed replay contract: same seed, same faults, bit-identical run.
//
// Transport-level faults (drop/delay/truncate/disconnect) are NOT drawn
// here: they stay in FaultInjectingTransport, which keys its own stream
// off the transfer index so a lost transfer never shifts later fates.
// The chaos engine composes with it instead of replacing it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "util/rng.hpp"

namespace fedpower::chaos {

/// Schedule parameters for one soak run. All probabilities are per round.
struct ChaosConfig {
  bool enabled = false;
  std::uint64_t seed = 2026;
  /// P(an online client goes offline this round) — availability churn.
  double leave_probability = 0.0;
  /// P(an offline client comes back this round). The stationary offline
  /// fraction of the on/off process is leave / (leave + rejoin); expected
  /// dwell time offline is 1/rejoin rounds.
  double rejoin_probability = 0.5;
  /// P(one device suffers a workload shock this round: its in-flight
  /// application is abandoned and the next scheduling interval pulls a
  /// fresh one from the workload generator — an app switch under fire).
  double shock_probability = 0.0;
};

/// Cumulative schedule counters (what the soak report prints).
struct ChaosStats {
  std::uint64_t rounds = 0;
  std::uint64_t departures = 0;  ///< online -> offline transitions
  std::uint64_t rejoins = 0;     ///< offline -> online transitions
  std::uint64_t shocks = 0;      ///< workload shocks dealt
  std::uint64_t max_offline = 0; ///< peak simultaneous offline clients
};

/// One round's worth of scheduled faults, in client-index order.
struct RoundPlan {
  std::vector<std::size_t> went_offline;  ///< departures this round
  std::vector<std::size_t> came_online;   ///< rejoins this round
  /// Full availability mask after this round's transitions
  /// (offline[i] != 0 means client i is unreachable this round).
  std::vector<char> offline;
  /// Device hit by a workload shock this round, if any.
  std::optional<std::size_t> shock_device;
};

class ChaosEngine {
 public:
  ChaosEngine(const ChaosConfig& config, std::size_t client_count);

  /// Advances the schedule one round. Draw order is fixed — one uniform
  /// per client in index order (skipped entirely when churn is disabled,
  /// i.e. leave_probability == 0), then one shock Bernoulli and, on a hit,
  /// one target index (skipped when shock_probability == 0) — so the
  /// stream position never depends on the drawn outcomes.
  RoundPlan begin_round();

  [[nodiscard]] std::size_t client_count() const noexcept {
    return offline_.size();
  }
  [[nodiscard]] bool offline(std::size_t client) const;
  [[nodiscard]] std::size_t offline_count() const noexcept;
  [[nodiscard]] const ChaosStats& stats() const noexcept { return stats_; }

  /// FPCK section (tag CHAO): RNG state, availability mask and cumulative
  /// stats. Restoring into an engine built for a different client count
  /// throws StateMismatchError; a resumed run replays the exact schedule
  /// the killed run would have produced.
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

 private:
  template <class Self, class Io> static void fields(Self& s, Io& io);

  // lint: ckpt-skip(construction config, fixed for the run)
  ChaosConfig config_;
  util::Rng rng_;
  std::vector<char> offline_;
  ChaosStats stats_;
};

}  // namespace fedpower::chaos
