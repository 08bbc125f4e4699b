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
#include <memory>
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

  /// local_parameters() into a caller-owned buffer, replacing its contents.
  /// The default wraps local_parameters(), so a decorator that overrides
  /// only that stays correct.
  virtual void copy_local_parameters_to(std::vector<double>& out) const {
    out = local_parameters();
  }

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
  /// Trim count the trimmed-mean aggregation used this round.
  std::size_t trim_count = 0;
  /// Reconnect/retry attempts this round's transfers made (the delta of the
  /// used link's stats().retries around each transfer).
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
/// collected them. Every on-time upload payload is handed to submit() and
/// the round closes with commit_round(). The committer owns the global
/// model, the wire codec, the optional defense stage and its own snapshot
/// section. LocalCommitter aggregates in process; serve::ShardedServer
/// commits through its worker shards; both run the same defense stage.
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
  /// The payload is only borrowed for the call, so the driver reuses one
  /// buffer for every uplink.
  virtual void submit(std::size_t client, std::uint64_t base_version,
                      std::span<const std::uint8_t> payload,
                      double weight) = 0;
  /// Closes the round; throws QuorumError (global model untouched) when
  /// fewer than `quorum` uploads survived. Participants that never
  /// submitted are dropouts. The driver fills in the round number,
  /// stragglers, downlink bytes and transport retries.
  virtual RoundResult commit_round(std::size_t quorum) = 0;
  virtual const std::vector<double>& global_model() const noexcept = 0;
  virtual const ModelCodec& codec() const noexcept = 0;
  /// Arms the defense stage between rounds (config.enabled false disarms);
  /// its state (DFNS) then ends the committer's snapshot section.
  virtual void enable_defense(const DefenseConfig& config) = 0;
  /// The armed defense pipeline, or nullptr; the driver's quarantine-aware
  /// draw reads it.
  virtual const DefensePipeline* defense() const noexcept = 0;
  virtual void save_state(ckpt::Writer& out) const = 0;
  virtual void restore_state(ckpt::Reader& in) = 0;
};

/// The in-process committer (paper Algorithm 2 lines 7-8): decodes, screens
/// and aggregates each round's uploads. It owns the global model, the
/// aggregation rule and the optional defense stage (DESIGN.md §10).
/// Uploads must arrive in client-index order, as the driver's serial
/// uplink sends them: the defense screens accumulate history in that order
/// (DESIGN.md §7).
class LocalCommitter final : public RoundCommitter {
 public:
  /// The codec is non-owning and must outlive the committer; the default is
  /// the paper's float32 wire format.
  LocalCommitter(std::size_t client_count, AggregationMode mode,
                 const ModelCodec* codec = nullptr);

  void initialize(std::vector<double> global) override;
  void set_executor(util::ParallelFor executor) override;
  /// Records the participants (sorted) and which of them enter the round
  /// quarantined.
  void begin_round(std::vector<std::size_t> participants) override;
  /// Always 0: a synchronous round trains every client from the current
  /// global model, so submit() ignores base versions.
  std::uint64_t version() const noexcept override { return 0; }
  /// Decodes and screens one participant's upload. A codec reject or a
  /// wrong shape is a dropout; a non-finite upload is rejected. A finite
  /// upload counts its bytes and, with the defense armed, goes where
  /// DefenseStage::admit sends it. Uploads decode into rows recycled
  /// across rounds. Under
  /// the unweighted mean an accepted upload is folded into the round's
  /// running sum on the spot, so its row goes straight back to the pool.
  void submit(std::size_t client, std::uint64_t base_version,
              std::span<const std::uint8_t> payload, double weight) override;
  /// Books every participant that never submitted as a dropout, checks the
  /// quorum (required_survivors), aggregates with aggregate_with_mode (the
  /// unweighted mean finishes its running sum instead) and commits the
  /// defense stage. On QuorumError neither the global model nor any
  /// reputation moves.
  RoundResult commit_round(std::size_t quorum) override;
  const std::vector<double>& global_model() const noexcept override {
    return global_;
  }
  const ModelCodec& codec() const noexcept override { return *codec_; }
  void enable_defense(const DefenseConfig& config) override;
  const DefensePipeline* defense() const noexcept override {
    return defense_ ? &defense_->pipeline() : nullptr;
  }

  /// The global model, then the defense state (tag DFNS) when the pipeline
  /// is armed.
  void save_state(ckpt::Writer& out) const override;
  void restore_state(ckpt::Reader& in) override;

 private:
  /// Where a client stands in the open round; decides which RoundResult
  /// list it lands in at commit.
  enum class Status : std::uint8_t {
    kIdle,       ///< not a participant of the open round
    kAwaiting,   ///< participant, no upload yet (a dropout if none comes)
    kDropped,    ///< codec reject or wrong shape
    kRejected,   ///< non-finite upload
    kScreened,   ///< failed the defense screen while not quarantined
    kDelivered,  ///< aggregated, or screened on probation
  };

  void clear_round();
  /// The unweighted mean needs no row kept: submit() folds each accepted
  /// upload into sum_. Every other rule needs all rows (or the total
  /// weight) before it can add anything.
  bool streams_mean() const noexcept {
    return mode_ == AggregationMode::kUnweightedMean;
  }
  template <class Self, class Io> static void fields(Self& s, Io& io);

  AggregationMode mode_;     // lint: ckpt-skip(construction config, fixed for the run)
  const ModelCodec* codec_;  // lint: ckpt-skip(non-owning strategy object; re-wired on resume)
  /// Empty = serial aggregation. lint: ckpt-skip(thread pool handle; commits are width-invariant)
  util::ParallelFor executor_;
  std::vector<double> global_;
  std::optional<DefenseStage> defense_;

  // In-flight round state: snapshots are taken between rounds, so none of
  // it can be live in a checkpoint.
  std::vector<std::size_t> participants_;  // lint: ckpt-skip(in-flight round state; snapshots only between rounds)
  /// One entry per client, kIdle outside the open round. lint: ckpt-skip(in-flight round state; snapshots only between rounds)
  std::vector<Status> status_;
  /// Uploads that join the aggregate, kept by every rule but the streamed
  /// mean. lint: ckpt-skip(in-flight round state; snapshots only between rounds)
  std::vector<std::vector<double>> locals_;
  /// Rows for reuse: submit() decodes into the last and takes it only when
  /// the upload joins locals_. lint: ckpt-skip(scratch: recycled upload rows)
  std::vector<std::vector<double>> spare_rows_;
  std::vector<double> weights_;  // lint: ckpt-skip(in-flight round state; snapshots only between rounds)
  /// The streamed mean's running sum over the accepted uploads; holds
  /// nothing meaningful while accepted_ is 0. lint: ckpt-skip(in-flight round state; snapshots only between rounds)
  std::vector<double> sum_;
  /// Uploads that joined the aggregate this round. lint: ckpt-skip(in-flight round state; snapshots only between rounds)
  std::size_t accepted_ = 0;
  std::size_t uplink_bytes_ = 0;  // lint: ckpt-skip(in-flight round state; snapshots only between rounds)
};

class FederatedAveraging {
 public:
  /// Aggregates in process through a LocalCommitter the driver owns.
  /// Clients, transport and codec are non-owning and must outlive the
  /// federation. The default codec is the paper's float32 wire format.
  FederatedAveraging(std::vector<FederatedClient*> clients,
                     Transport* transport,
                     AggregationMode mode = AggregationMode::kUnweightedMean,
                     const ModelCodec* codec = nullptr);

  /// Routes every round's uploads to `committer` (non-owning; must outlive
  /// the federation). Uplinks are encoded with the committer's codec, and
  /// the aggregation rule and the defense stage are the committer's.
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
  /// dropout (RoundResult::stragglers ⊆ dropped): its upload never reaches
  /// the committer, so stragglers count against the quorum without
  /// blocking the round and never feed reputation.
  void set_round_deadline(double seconds);

  /// Arms the server-side Byzantine defense pipeline (defense.hpp) on the
  /// committer: norm clipping and screening, cosine screening against the
  /// previous global model, and reputation-based quarantine.
  /// config.enabled false disarms it. Must be called before the first
  /// round; the pipeline's state is then part of save_state/restore_state.
  void enable_defense(const DefenseConfig& config);

  /// The armed defense pipeline, or nullptr when defense is disabled.
  const DefensePipeline* defense() const noexcept {
    return committer_->defense();
  }

  /// Runs the clients' local training through the given executor (e.g. a
  /// runtime::ThreadPool), one client = one work item, with a barrier
  /// before the uplink phase; large aggregations in the committer also
  /// shard their coordinate reduction across it. Clients must not share
  /// mutable state for this to be legal — PowerController fleets satisfy
  /// that (each owns its processor, workload and split RNG), which also
  /// makes the result bit-identical to the serial default (empty
  /// executor). Transfers always stay serial in client-index order, so
  /// transport fault injection and traffic accounting are
  /// schedule-independent.
  void set_local_executor(util::ParallelFor executor);

  /// Runs one full round: broadcast, parallel local training, upload, and
  /// the committer's commit. A client whose downlink or uplink transfer
  /// throws TransportError (or whose downlink payload the codec rejects)
  /// never reaches the committer, which books it in RoundResult::dropped;
  /// the committer screens the uploads that do arrive and reports the
  /// verdicts. The round completes with the survivors as long as the
  /// quorum holds.
  RoundResult run_round();

  /// Runs the given number of rounds back to back.
  void run(std::size_t rounds);

  const std::vector<double>& global_model() const noexcept {
    return committer_->global_model();
  }
  std::size_t rounds_completed() const noexcept { return rounds_completed_; }
  std::size_t client_count() const noexcept { return clients_.size(); }
  const ModelCodec& codec() const noexcept { return committer_->codec(); }

  /// Serializes the driver's round state — client count, round counter and
  /// the participation RNG stream (so a resumed run selects the same
  /// clients the uninterrupted run would have) — followed by the
  /// committer's own section, which ends in DFNS when the defense is armed
  /// (snapshots and federations must agree on whether it is). The tag is
  /// fixed by the constructor: FAVG over the owned LocalCommitter (then the
  /// global model), SFED over a caller's committer. Restoring a
  /// snapshot whose global model does not fit the clients' models throws
  /// ckpt::StateMismatchError.
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

 private:
  FederatedAveraging(std::vector<FederatedClient*> clients,
                     Transport* transport, ckpt::Tag snapshot_tag);

  std::vector<std::size_t> draw_participants();
  Transport& transport_for(std::size_t client) noexcept;
  template <class Self, class Io> static void fields(Self& s, Io& io);

  std::vector<FederatedClient*> clients_;
  Transport* transport_;  // lint: ckpt-skip(non-owning wiring; re-attached before resuming)
  /// Per-client overrides. lint: ckpt-skip(non-owning wiring; re-attached before resuming)
  std::vector<Transport*> client_transports_;
  /// Null over a caller's committer. lint: ckpt-skip(saved through committer_)
  std::unique_ptr<LocalCommitter> local_;
  RoundCommitter* committer_ = nullptr;
  ckpt::Tag snapshot_tag_;
  /// Empty = serial local rounds. lint: ckpt-skip(thread pool handle; rounds are width-invariant)
  util::ParallelFor executor_;
  std::size_t rounds_completed_ = 0;
  SamplingConfig sampling_{};  // lint: ckpt-skip(construction config, fixed for the run)
  std::size_t quorum_ = 1;     // lint: ckpt-skip(construction config, fixed for the run)
  double deadline_s_ = 0.0;    // lint: ckpt-skip(construction config, fixed for the run)
  util::Rng participation_rng_{0};

  // Buffers every participant of every round reuses, so a steady-state
  // round allocates nothing per participant; none carries state between
  // transfers.
  std::vector<std::uint8_t> broadcast_payload_;  // lint: ckpt-skip(scratch: this round's encoded global model)
  std::vector<double> broadcast_params_;  // lint: ckpt-skip(scratch: this round's broadcast, decoded once)
  std::vector<std::uint8_t> downlink_payload_;  // lint: ckpt-skip(scratch: one downlink's bytes)
  std::vector<double> downlink_params_;  // lint: ckpt-skip(scratch: a downlink a transport changed, decoded)
  std::vector<double> uplink_params_;  // lint: ckpt-skip(scratch: one client's local model)
  std::vector<std::uint8_t> uplink_payload_;  // lint: ckpt-skip(scratch: one uplink's bytes)
};

}  // namespace fedpower::fed
