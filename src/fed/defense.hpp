// Server-side Byzantine defense pipeline (DESIGN.md §10).
//
// The federation's averaging rules assume every upload is an honest local
// model; a single misbehaving device (sign-flipped weights, a stuck power
// sensor corrupting rewards, a replayed stale model) can steer plain FedAvg
// arbitrarily. This pipeline screens each decoded upload *before* it can
// reach the aggregate and tracks a per-client reputation so persistent
// offenders are quarantined instead of being re-screened forever:
//
//   1. norm screen — the L2 norm of the client's update (theta_i - g_prev)
//      is compared against a robust running median of recently accepted
//      norms; moderately oversized updates are clipped back to the norm
//      envelope, grossly oversized ones are rejected outright.
//   2. cosine screen — the cosine distance between the uploaded model and
//      the previous global model; a sign-flipped or heavily rotated model
//      sits near distance 2 while honest local training stays close to the
//      broadcast it started from.
//   3. reputation & quarantine — every screening verdict moves the client's
//      reputation; below the quarantine threshold the client keeps
//      receiving broadcasts (it may merely be faulty, and an eventual
//      recovery needs the current global model) but its uploads are
//      excluded from aggregation. A quarantined client that delivers
//      `probation_rounds` consecutive clean uploads is re-admitted.
//
// Determinism contract (DESIGN.md §7/§8): every loop below runs in client
// index order or coordinate order with explicit accumulation — no hash
// containers, no std::accumulate — so the screening decisions (and thus
// the round outcome) are bit-identical at every thread count. Screening
// reads pipeline state but mutates nothing; all state transitions happen
// in commit_round(), which the server calls only after the quorum held, so
// an aborted round leaves reputations untouched (matching the untouched
// round counter). DefenseStage wraps the pipeline in the round rule both
// committers run, so the rule is written once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ckpt/binary_io.hpp"

namespace fedpower::fed {

/// True when any coordinate is NaN or infinite — the server-core screen a
/// diverged or malicious upload must never pass. Both committers apply it
/// to every decoded upload, defense armed or not.
bool any_non_finite(std::span<const double> values);

struct DefenseConfig {
  /// Master switch; a default-constructed config keeps the legacy
  /// screen-nothing behaviour.
  bool enabled = false;

  // --- update screening --------------------------------------------------
  /// Updates with norm above clip_multiplier * median(history) are scaled
  /// back to that envelope (admitted, but bounded).
  double norm_clip_multiplier = 2.5;
  /// Updates with norm above screen_multiplier * median(history) are
  /// rejected outright. Must be >= norm_clip_multiplier.
  double norm_screen_multiplier = 6.0;
  /// Uploads whose cosine distance to the previous global model exceeds
  /// this are rejected (distance 0 = same direction, 2 = sign-flipped).
  double cosine_max_distance = 0.8;
  /// Completed rounds before the screens arm: the first global models are
  /// near-random, so norms and angles carry no signal yet.
  std::size_t warmup_rounds = 3;
  /// Accepted-norm history ring capacity (the median's window).
  std::size_t norm_history = 64;
  /// Accepted norms required in the history before the norm screen arms.
  std::size_t norm_min_samples = 8;

  // --- reputation & quarantine -------------------------------------------
  double initial_reputation = 1.0;
  /// Subtracted on every screened-out (or non-finite) upload.
  double fail_penalty = 0.25;
  /// Added (up to 1.0) on every accepted upload.
  double pass_credit = 0.05;
  /// Reputation below this quarantines the client.
  double quarantine_threshold = 0.5;
  /// Consecutive clean uploads a quarantined client must deliver before it
  /// is re-admitted (its re-admission takes effect the following round).
  std::size_t probation_rounds = 3;
  /// Reputation granted on re-admission (a second offence re-quarantines
  /// quickly).
  double readmit_reputation = 0.6;
};

/// Screening verdict for one client's upload in one round.
enum class ScreenVerdict : std::uint8_t {
  kAccepted = 0,    ///< upload enters the aggregate unchanged
  kClipped = 1,     ///< admitted after norm clipping
  kNormReject = 2,  ///< update norm grossly outside the envelope
  kCosineReject = 3,///< model points away from the previous global
  kNonFinite = 4,   ///< NaN/inf upload (screened by the server core)
};

/// One client's screening observation, produced by screen() and consumed by
/// commit_round(). `client` indexes the federation's client list.
struct ScreenObservation {
  std::size_t client = 0;
  ScreenVerdict verdict = ScreenVerdict::kAccepted;
  /// L2 norm of the (possibly clipped) update; what enters the history.
  double accepted_norm = 0.0;
};

/// What commit_round() decided, in client index order.
struct DefenseRoundLog {
  std::vector<std::size_t> readmitted; ///< quarantined clients re-admitted
  std::vector<std::size_t> newly_quarantined;
  std::size_t clipped = 0;             ///< admitted-after-clipping count
};

class DefensePipeline {
 public:
  DefensePipeline(DefenseConfig config, std::size_t client_count);

  const DefenseConfig& config() const noexcept { return config_; }
  std::size_t client_count() const noexcept { return clients_.size(); }

  bool quarantined(std::size_t client) const;
  double reputation(std::size_t client) const;
  /// O(1): kept current by commit_round and restore_state.
  std::size_t quarantined_count() const noexcept { return quarantined_count_; }
  std::size_t rounds_committed() const noexcept { return rounds_; }

  /// Screens one decoded upload against the previous global model. May
  /// rescale `upload` in place (norm clipping); never mutates pipeline
  /// state. Returns the observation to hand to commit_round().
  ScreenObservation screen(std::size_t client, std::vector<double>& upload,
                           std::span<const double> previous_global) const;

  /// Observation for an upload the server core already rejected (NaN/inf).
  ScreenObservation non_finite(std::size_t client) const;

  /// Applies one completed round's observations — reputation deltas,
  /// quarantine transitions, probation bookkeeping, norm history — in
  /// client index order. Call only after the round's quorum held; a round
  /// aborted by QuorumError must simply drop its observations.
  DefenseRoundLog commit_round(
      const std::vector<ScreenObservation>& observations);

  /// Serializes reputation, quarantine and norm-history state (tag DFNS).
  void save_state(ckpt::Writer& out) const;
  /// Throws ckpt::StateMismatchError when the snapshot was taken with a
  /// different client count.
  void restore_state(ckpt::Reader& in);

 private:
  struct ClientState {
    double reputation = 1.0;
    bool quarantined = false;
    std::uint64_t probation_streak = 0;  ///< clean uploads while quarantined
    std::uint64_t screened_total = 0;
    std::uint64_t readmissions = 0;
  };

  bool norm_screen_armed() const noexcept;
  template <class Self, class Io> static void fields(Self& s, Io& io);

  DefenseConfig config_;
  std::vector<ClientState> clients_;
  /// Ring buffer of recently accepted update norms (insertion order; the
  /// cursor marks the next overwrite slot once the ring is full).
  std::vector<double> norm_history_;
  std::size_t norm_cursor_ = 0;
  std::size_t rounds_ = 0;
  /// Clients with quarantined set. lint: ckpt-skip(derived from clients_; restore_state recounts it)
  std::size_t quarantined_count_ = 0;
  /// robust_median(norm_history_), which only commit_round changes, so a
  /// round's screens share one median. lint: ckpt-skip(derived from norm_history_; restore_state recomputes it)
  double norm_median_ = 0.0;
};

/// Uploads a round needs to commit: `quorum`, capped at the participants
/// that did not enter the round quarantined, and at least one.
[[nodiscard]] std::size_t required_survivors(std::size_t quorum,
                                             std::size_t participants,
                                             std::size_t quarantined) noexcept;

/// Where one upload goes in the open round.
enum class Admission : std::uint8_t {
  kAggregate,  ///< clean, from a client outside quarantine
  kScreened,   ///< unclean, from a client outside quarantine
  kProbation,  ///< from a quarantined client: feeds only its probation
};

/// The defense as a committer stage (DESIGN.md §10), run the same way by
/// both committers: begin_round, then admit for every finite upload's
/// screen() and every non-finite upload's non_finite() observation in
/// client order, then commit once the quorum held. A round that never
/// commits leaves the pipeline untouched. No allocation per upload once
/// the vectors have grown.
class DefenseStage {
 public:
  DefenseStage(const DefenseConfig& config, std::size_t client_count)
      : pipeline_(config, client_count) {}

  const DefensePipeline& pipeline() const noexcept { return pipeline_; }

  /// Opens a round over the sorted participants; drops what an
  /// uncommitted round left behind.
  void begin_round(std::span<const std::size_t> participants);
  /// Participants that entered the open round quarantined, sorted.
  const std::vector<std::size_t>& quarantined() const noexcept {
    return quarantined_;
  }
  /// Records one observation for the commit and says where its upload goes.
  Admission admit(const ScreenObservation& observation);
  /// Applies the round's observations to the pipeline and closes the round.
  DefenseRoundLog commit();

  void save_state(ckpt::Writer& out) const { pipeline_.save_state(out); }
  void restore_state(ckpt::Reader& in) { pipeline_.restore_state(in); }

 private:
  DefensePipeline pipeline_;
  /// lint: ckpt-skip(in-flight round state; snapshots only between rounds)
  std::vector<std::size_t> quarantined_;
  /// lint: ckpt-skip(in-flight round state; snapshots only between rounds)
  std::vector<ScreenObservation> observations_;
};

}  // namespace fedpower::fed
