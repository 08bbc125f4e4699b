// Synchronous federated-averaging orchestration (paper Algorithm 2).
//
// Each round: the server broadcasts the global model to all clients; every
// client trains locally (T environment steps in the power-control setting);
// the clients upload their local models; the server averages them into the
// next global model. Models cross the transport as float32 payloads
// (nn/serialize.hpp), so the traffic statistics reflect real wire sizes.
//
// Privacy property enforced by construction: the only data type that can
// cross the Transport is an encoded parameter vector — replay-buffer
// contents (raw performance counters and power traces) have no path off
// the device.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/aggregate.hpp"
#include "fed/codec.hpp"
#include "fed/defense.hpp"
#include "fed/transport.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"

namespace fedpower::fed {

/// A device participating in federated optimization.
class FederatedClient {
 public:
  virtual ~FederatedClient() = default;

  /// Installs the global model received from the server.
  virtual void receive_global(std::span<const double> params) = 0;

  /// Current local model parameters.
  virtual std::vector<double> local_parameters() const = 0;

  /// Performs one round of local optimization (Algorithm 2 line 5).
  virtual void run_local_round() = 0;

  /// Local training-set size for sample-weighted aggregation; the default
  /// weights all clients equally.
  virtual std::size_t local_sample_count() const { return 1; }
};

/// Per-round client sampling (McMahan-style C-fraction). The paper's
/// setting is full participation (fraction = 1); fleets beyond a few dozen
/// devices sample ceil(fraction * eligible) clients per round instead, so
/// per-round cost scales with the sample, not the fleet.
///
/// Semantics:
///   * fraction = 1 selects every client and consumes no randomness, so
///     full-participation runs keep their historic RNG stream byte for
///     byte.
///   * fraction < 1 draws uniformly without replacement from the ELIGIBLE
///     clients — when the defense pipeline is armed and quarantine_aware
///     is set (the default), quarantined clients are excluded from the
///     draw so the round's C-fraction is spent entirely on clients whose
///     uploads can actually reach the aggregate. (The pre-fix behaviour
///     drew from the full fleet; rounds that happened to select
///     quarantined clients silently ran below the configured fraction and
///     could starve the quorum.)
///   * Quarantined clients still participate every sampled round as
///     probation riders: they receive the broadcast and their uploads are
///     screened (never aggregated), so the defense pipeline's
///     consecutive-clean-upload re-admission keeps progressing even at
///     small C. They are listed in RoundResult::participants and
///     RoundResult::quarantined exactly as under full participation.
///   * min_clients floors the eligible draw: small fleets (or tiny
///     fractions) still field at least min(min_clients, eligible) clients.
///
/// The draw is deterministic from `seed`: the participation stream lives
/// in FederatedAveraging::save_state, so a resumed run selects the same
/// clients the uninterrupted run would have. The config itself is
/// configuration, not state — a resuming federation must be handed the
/// same SamplingConfig, exactly like DefenseConfig.
struct SamplingConfig {
  double fraction = 1.0;        ///< C: fraction of eligible clients per round
  std::size_t min_clients = 1;  ///< floor on the per-round eligible draw
  std::uint64_t seed = 0;       ///< participation stream seed
  bool quarantine_aware = true; ///< skip quarantined clients in the draw
};

struct RoundResult {
  std::size_t round = 0;
  std::size_t uplink_bytes = 0;
  std::size_t downlink_bytes = 0;
  /// Clients selected this round (all of them unless partial participation
  /// is configured).
  std::vector<std::size_t> participants;
  /// Selected clients lost to transport faults (connection errors or
  /// corrupt payloads); always a subset of participants, sorted.
  std::vector<std::size_t> dropped;
  /// Selected clients whose upload decoded cleanly but was screened out by
  /// the server (non-finite parameters — a diverged or malicious model);
  /// disjoint from dropped, sorted.
  std::vector<std::size_t> rejected;
  /// Selected clients whose finite upload failed the defense pipeline's
  /// norm or cosine screen this round (defense enabled only); sorted.
  std::vector<std::size_t> screened;
  /// Selected clients excluded from aggregation because they entered the
  /// round quarantined (they still received the broadcast and their upload
  /// was screened for probation); sorted.
  std::vector<std::size_t> quarantined;
  /// Quarantined clients re-admitted at the end of this round (their models
  /// rejoin the aggregate from the next round on); sorted.
  std::vector<std::size_t> readmitted;
  /// Uploads admitted after defense norm clipping.
  std::size_t clipped = 0;
  /// Trim count the trimmed-mean aggregation actually used this round.
  std::size_t trim_count = 0;
  /// True when dropouts shrank the survivor set enough that the requested
  /// trim count had to be clamped (see aggregate_trimmed_mean).
  bool trim_clamped = false;
  /// Transport-level reconnect/retry attempts observed during the round.
  std::size_t transport_retries = 0;
  /// Participants demoted to dropouts by the per-round latency deadline
  /// (set_round_deadline); always a subset of dropped, sorted. A straggler
  /// counts against the quorum exactly like a transport fault but never
  /// blocks the round, and its upload is discarded before any screening so
  /// an honest-but-slow client pays no reputation.
  std::vector<std::size_t> stragglers;

  /// Clients whose local model made it into the aggregate: the participants
  /// minus the union of dropped/rejected/screened/quarantined. A client
  /// listed in several exclusion categories is subtracted exactly once
  /// (naively summing the lists double-counts and underflows).
  std::size_t effective_clients() const noexcept;

  /// Legacy name for effective_clients().
  std::size_t survivors() const noexcept { return effective_clients(); }
};

/// Thrown by run_round when fewer clients than the configured quorum
/// survive the round's transfers. The global model and round counter are
/// left unchanged, so the caller can retry the round or abandon it.
class QuorumError final : public std::runtime_error {
 public:
  QuorumError(std::size_t survivors, std::size_t required)
      : std::runtime_error("federated round aborted: " +
                           std::to_string(survivors) +
                           " survivor(s), quorum requires " +
                           std::to_string(required)),
        survivors_(survivors),
        required_(required) {}

  std::size_t survivors() const noexcept { return survivors_; }
  std::size_t required() const noexcept { return required_; }

 private:
  std::size_t survivors_;
  std::size_t required_;
};

/// The commit seam behind FederatedAveraging (DESIGN.md §12): where a
/// round's uploads go once the driver has drawn, broadcast, trained and
/// collected them. Without a committer the driver decodes, screens and
/// aggregates inline; with one (serve::ShardedServer) every on-time
/// upload payload is handed to submit() and the round closes with
/// commit_round(). The committer owns the global model, the wire codec
/// and its own snapshot section.
class RoundCommitter {
 public:
  RoundCommitter() = default;
  virtual ~RoundCommitter() = default;
  RoundCommitter(const RoundCommitter&) = delete;
  RoundCommitter& operator=(const RoundCommitter&) = delete;

  /// Installs the initial global model.
  virtual void initialize(std::vector<double> global) = 0;
  /// Executor for the commit-time aggregation; empty means serial.
  virtual void set_executor(util::ParallelFor executor) = 0;
  /// Opens a round for the drawn participants.
  virtual void begin_round(std::vector<std::size_t> participants) = 0;
  /// Model version the round's clients train from.
  virtual std::uint64_t version() const noexcept = 0;
  /// Hands over one encoded upload; `weight` is the client's sample count.
  virtual void submit(std::size_t client, std::uint64_t base_version,
                      std::vector<std::uint8_t> payload, double weight) = 0;
  /// Closes the round; throws QuorumError (global model untouched) when
  /// fewer than `quorum` uploads survived. Participants that never
  /// submitted are dropouts.
  virtual RoundResult commit_round(std::size_t quorum) = 0;
  virtual const std::vector<double>& global_model() const noexcept = 0;
  virtual const ModelCodec& codec() const noexcept = 0;
  virtual void save_state(ckpt::Writer& out) const = 0;
  virtual void restore_state(ckpt::Reader& in) = 0;
};

class FederatedAveraging {
 public:
  /// Clients, transport and codec are non-owning and must outlive the
  /// federation. The default codec is the paper's float32 wire format.
  FederatedAveraging(std::vector<FederatedClient*> clients,
                     Transport* transport,
                     AggregationMode mode = AggregationMode::kUnweightedMean,
                     const ModelCodec* codec = nullptr);

  /// Routes every round's uploads to `committer` (non-owning; must outlive
  /// the federation) instead of aggregating inline. Uplinks are encoded
  /// with the committer's codec, and the aggregation rule is the
  /// committer's. The defense pipeline cannot be armed on this path.
  FederatedAveraging(std::vector<FederatedClient*> clients,
                     Transport* transport, RoundCommitter* committer);

  /// Sets the initial global model theta_1 (Algorithm 2 line 1).
  void initialize(std::vector<double> global);

  /// Configures per-round client sampling (see SamplingConfig). Resets the
  /// participation stream to config.seed; call before the first round (or
  /// restore_state, which overrides the stream position).
  void set_sampling(const SamplingConfig& config);

  /// The active sampling configuration (full participation by default).
  const SamplingConfig& sampling() const noexcept { return sampling_; }

  /// Legacy entry point: set_sampling with the given fraction/seed and the
  /// default floor (1) and quarantine awareness.
  void set_participation(double fraction, std::uint64_t seed);

  /// Minimum number of clients whose uploads must survive the round's
  /// transfers; below it run_round throws QuorumError and leaves the
  /// global model and round counter untouched. Default 1: any survivor
  /// lets FedAvg proceed with partial participation.
  ///
  /// Quorum semantics under partial participation: the requirement is
  /// checked against THIS round's aggregation-eligible participants (the
  /// drawn clients minus probation riders), never against the full fleet —
  /// a round that samples fewer clients than min_survivors demands only
  /// that every sampled client survives. (The pre-fix behaviour compared
  /// against the absolute count, so small-C rounds threw QuorumError
  /// spuriously even with zero faults.) At least one upload must always
  /// survive: a round whose every participant is quarantined, dropped or
  /// rejected still aborts.
  void set_quorum(std::size_t min_survivors);

  /// Routes client's transfers through its own transport (e.g. one TCP
  /// connection per device) instead of the shared one. Non-owning.
  void set_client_transport(std::size_t client, Transport* transport);

  /// Per-round transport-latency budget per client, in simulated seconds;
  /// 0 disables (the default). A participant whose downlink + uplink
  /// latency this round (Transport::cumulative_latency_s deltas, which
  /// include fault-injected delays) exceeds the budget is demoted to a
  /// dropout (RoundResult::stragglers ⊆ dropped): its upload is discarded
  /// BEFORE decoding or defense screening, so stragglers count against the
  /// quorum without blocking the round and never feed reputation.
  void set_round_deadline(double seconds);

  /// Arms the server-side Byzantine defense pipeline (defense.hpp): norm
  /// clipping and screening, cosine screening against the previous global
  /// model, and reputation-based quarantine. No-op when config.enabled is
  /// false. Must be called before the first round and without a
  /// committer; the pipeline's state is then part of
  /// save_state/restore_state.
  void enable_defense(const DefenseConfig& config);

  /// The armed defense pipeline, or nullptr when defense is disabled.
  const DefensePipeline* defense() const noexcept {
    return defense_ ? &*defense_ : nullptr;
  }

  /// Overrides the trimmed-mean trim count (default: ~20% of the round's
  /// survivors, at least 1 from three survivors up). The effective value is
  /// still clamped per round to what the survivor set supports
  /// (clamp_trim_count); RoundResult::trim_clamped records when that
  /// happened.
  void set_trim_count(std::size_t trim_count);

  /// Runs the clients' local training through the given executor (e.g. a
  /// runtime::ThreadPool), one client = one work item, with a barrier
  /// before the uplink phase; large aggregations (inline or in the
  /// committer) also shard their coordinate reduction across it. Clients
  /// must not share mutable state for this to be legal — PowerController
  /// fleets satisfy that (each owns its processor, workload and split RNG),
  /// which also makes the result bit-identical to the serial default
  /// (empty executor). Transfers always stay serial in client-index order,
  /// so transport fault injection and traffic accounting are
  /// schedule-independent.
  void set_local_executor(util::ParallelFor executor);

  /// Runs one full round: broadcast, parallel local training, aggregation.
  /// A client whose downlink or uplink transfer throws TransportError (or
  /// delivers a payload the codec rejects) is recorded in
  /// RoundResult::dropped and excluded from the aggregate; an upload that
  /// decodes to the wrong shape or contains non-finite values is screened
  /// out server-side (RoundResult::rejected) exactly like a dropout. The
  /// round completes with the survivors as long as the quorum holds. With
  /// a committer, the committer screens the uploads and reports the
  /// verdicts.
  RoundResult run_round();

  /// Runs the given number of rounds back to back.
  void run(std::size_t rounds);

  const std::vector<double>& global_model() const noexcept {
    return committer_ != nullptr ? committer_->global_model() : global_;
  }
  std::size_t rounds_completed() const noexcept { return rounds_completed_; }
  std::size_t client_count() const noexcept { return clients_.size(); }
  const ModelCodec& codec() const noexcept { return *codec_; }

  /// Serializes the server's round state: global model, round counter and
  /// the participation RNG stream (so a resumed run selects the same
  /// clients the uninterrupted run would have). When the defense pipeline
  /// is armed its reputation/quarantine state follows (tag DFNS); snapshots
  /// and federations must agree on whether defense is enabled. The tag
  /// says which driver wrote it: FAVG inline; SFED (client count, round
  /// counter, participation stream) followed by the committer's own
  /// section with a committer. Restoring a snapshot whose global model
  /// does not fit the clients' models throws ckpt::StateMismatchError.
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

 private:
  std::vector<std::size_t> draw_participants();
  Transport& transport_for(std::size_t client) noexcept;
  std::size_t total_transport_retries() const;

  std::vector<FederatedClient*> clients_;
  Transport* transport_;  // lint: ckpt-skip(non-owning wiring; re-attached before resuming)
  /// Per-client overrides. lint: ckpt-skip(non-owning wiring; re-attached before resuming)
  std::vector<Transport*> client_transports_;
  /// Distinct transports (shared + overrides), sorted by address; rebuilt
  /// lazily after set_client_transport so per-round retry accounting is one
  /// linear pass instead of the historic O(n^2) pointer scan.
  // lint: ckpt-skip(lazy cache rebuilt from the transports on demand)
  mutable std::vector<const Transport*> transport_dedup_;
  mutable bool transport_dedup_stale_ = true;  // lint: ckpt-skip(lazy cache flag; stale default makes resume rebuild)
  AggregationMode mode_;     // lint: ckpt-skip(construction config, fixed for the run)
  const ModelCodec* codec_;  // lint: ckpt-skip(non-owning strategy object; re-wired on resume)
  RoundCommitter* committer_ = nullptr;  ///< null = inline aggregation
  /// Empty = serial local rounds. lint: ckpt-skip(thread pool handle; rounds are width-invariant)
  util::ParallelFor executor_;
  std::vector<double> global_;
  std::size_t rounds_completed_ = 0;
  SamplingConfig sampling_{};  // lint: ckpt-skip(construction config, fixed for the run)
  std::size_t quorum_ = 1;     // lint: ckpt-skip(construction config, fixed for the run)
  double deadline_s_ = 0.0;    // lint: ckpt-skip(construction config, fixed for the run)
  util::Rng participation_rng_{0};
  std::optional<DefensePipeline> defense_;
  bool trim_count_override_ = false;  // lint: ckpt-skip(construction config, fixed for the run)
  std::size_t trim_count_ = 0;        // lint: ckpt-skip(construction config, fixed for the run)
};

}  // namespace fedpower::fed
