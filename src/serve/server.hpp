// Sharded federation server: injector -> per-worker SPSC queues, static
// client shards, two commit modes (DESIGN.md §12).
//
// The KVell idiom: one injector thread decodes/validates nothing itself —
// it routes each uplink to the worker that statically owns the client
// (client mod workers) over a bounded SPSC queue. Each worker owns its
// shard of per-client records (verdict counters, staleness bookkeeping)
// outright, so the hot path takes no locks: correctness comes from
// partitioning, not mutual exclusion. A full queue applies backpressure —
// the frame is deferred on the injector side and surfaces in
// stats().deferred; it is never dropped silently.
//
// With the defense armed (deterministic mode only), workers screen with
// the in-process committer's fed::DefensePipeline::screen against the
// global model, which moves only while they are idle, and the commit
// admits the observations in client order: bit-identical to sync+defense.
//
// Commit modes:
//  * kDeterministic buffers worker verdicts for the round and commits in
//    client-index order at the round boundary, running the exact same
//    aggregation code as the synchronous FederatedAveraging server
//    (fed::aggregate_with_mode). The result is bit-identical to the
//    synchronous path at ANY worker count — the PR 2/PR 6 contract.
//  * kThroughput merges each accepted upload FedAsync-style as it is
//    collected, discounted by staleness (server_version - client base
//    version), relaxing only ordering.
//
// Threading contract: exactly one orchestrator thread calls the public
// mutating API (begin_round/submit/poll/drain/commit_round/initialize/
// save_state/restore_state); workers never touch anything outside their
// shard. save_state/restore_state additionally require quiescence (no
// in-flight uploads), which drain() establishes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fed/aggregate.hpp"
#include "fed/codec.hpp"
#include "fed/defense.hpp"
#include "fed/federation.hpp"
#include "serve/spsc_queue.hpp"
#include "util/executor.hpp"

namespace fedpower::serve {

enum class CommitMode {
  kDeterministic,  ///< round-boundary commit, bit-identical to sync FedAvg
  kThroughput,     ///< FedAsync-style staleness-discounted merge per upload
};

struct ServeConfig {
  std::size_t workers = 1;       ///< shard count (static client partition)
  std::size_t queue_depth = 256; ///< per-shard SPSC capacity (frames)
  std::size_t batch_max = 16;    ///< worker batched-dequeue burst size
  CommitMode mode = CommitMode::kDeterministic;
  fed::AggregationMode aggregation = fed::AggregationMode::kUnweightedMean;
  double mixing_rate = 0.5;      ///< throughput mode: FedAsync alpha
  double staleness_power = 1.0;  ///< throughput mode: discount exponent
  /// Idle/half-open connection deadline for the epoll front end, in
  /// seconds: a connection with no traffic for this long is reaped
  /// (stats().idle_reaped). 0 disables, preserving the PR 7 behavior of
  /// holding a half-open slot forever.
  double idle_timeout_s = 0.0;
};

struct ServeStats {
  std::size_t uplinks_accepted = 0;  ///< decoded, right shape, finite
  std::size_t uplinks_corrupt = 0;   ///< codec reject or wrong shape
  std::size_t uplinks_rejected = 0;  ///< non-finite screened out
  std::size_t deferred = 0;          ///< backpressure: frames queued overflow
  std::size_t merges = 0;            ///< throughput-mode merges applied
  /// Re-sent uplinks resolved away: round duplicates folded to the first
  /// arrival at commit, plus deterministic-mode replays whose round had
  /// already committed when they landed. Never reach the model.
  std::size_t duplicates = 0;
  /// Session-resume handshakes served (connection churn, fleet-wide).
  std::size_t resumes = 0;
  /// Idle/half-open connections reaped by the front end's deadline.
  std::size_t idle_reaped = 0;
  double max_staleness = 0.0;
  double mean_staleness = 0.0;
};

/// Per-client serving state. Owned exclusively by the worker whose shard
/// the client maps to; the orchestrator may only read it at quiescence.
struct ClientRecord {
  std::uint64_t base_version_seen = 0;
  std::uint64_t accepted = 0;  ///< decoded, right shape, finite
  std::uint64_t corrupt = 0;   ///< codec reject or wrong shape
  std::uint64_t rejected = 0;  ///< non-finite
};

/// The committer behind fed::FederatedAveraging on the serve path, and the
/// server the epoll front end drives directly. `final`, so direct callers
/// pay no virtual dispatch.
class ShardedServer final : public fed::RoundCommitter {
 public:
  ShardedServer(std::size_t client_count, ServeConfig config = {},
                const fed::ModelCodec* codec = nullptr);
  ~ShardedServer() override;

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Installs the initial global model. Must run before the first submit.
  void initialize(std::vector<double> global) override;

  /// Executor for the commit-time aggregation (and large throughput
  /// merges); empty means serial. Same bit-identity contract as
  /// fed::aggregate.hpp.
  void set_executor(util::ParallelFor executor) override;

  /// Opens a round: records the drawn participant set and clears the
  /// per-round upload log. Frames collected while no round is open are
  /// counted in stats() but belong to no round.
  void begin_round(std::vector<std::size_t> participants) override;

  /// Routes one uplink payload to its shard. `base_version` is the server
  /// version the client trained from (staleness bookkeeping); `weight` is
  /// its sample count for weighted aggregation. Never blocks and never
  /// drops: a full shard queue defers the frame to an injector-side
  /// overflow list (stats().deferred) that flushes ahead of newer frames.
  /// The shard keeps its own copy of the payload bytes.
  void submit(std::size_t client, std::uint64_t base_version,
              std::span<const std::uint8_t> payload, double weight) override;

  /// Opportunistic progress: flushes deferred frames and collects finished
  /// worker verdicts (merging them immediately in throughput mode).
  void poll();

  /// Blocks until every submitted frame has been processed and collected.
  void drain();

  /// Closes the round. The first arrival of each participant counts, in
  /// client-index order: its finite upload's bytes, and with the defense
  /// armed its observation (fed::DefenseStage::admit). Deterministic mode
  /// aggregates the admitted uploads (bit-identical to the synchronous
  /// server); throughput mode has already merged and only reports. Throws
  /// fed::QuorumError — leaving the global model, the round counter and
  /// the defense untouched — when fewer than fed::required_survivors
  /// uploads were admitted.
  fed::RoundResult commit_round(std::size_t quorum) override;

  /// Arms the defense stage at quiescence, outside a round; config.enabled
  /// false disarms it. Only deterministic mode screens: throughput mode
  /// merges into the global model while the workers run, so arming it there
  /// is a precondition failure.
  void enable_defense(const fed::DefenseConfig& config) override;
  [[nodiscard]] const fed::DefensePipeline* defense() const noexcept override {
    return defense_ ? &defense_->pipeline() : nullptr;
  }

  [[nodiscard]] const std::vector<double>& global_model()
      const noexcept override {
    return global_;
  }
  [[nodiscard]] std::uint64_t version() const noexcept override {
    return version_;
  }
  [[nodiscard]] std::size_t rounds_committed() const noexcept {
    return rounds_committed_;
  }
  [[nodiscard]] std::size_t client_count() const noexcept {
    return records_.size();
  }
  [[nodiscard]] std::size_t worker_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t submitted() const noexcept {
    return submitted_total_;
  }
  [[nodiscard]] const ServeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const fed::ModelCodec& codec() const noexcept override {
    return *codec_;
  }
  [[nodiscard]] CommitMode mode() const noexcept { return config_.mode; }
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

  /// Connection-churn accounting (orchestrator-owned, so the front end's
  /// loop thread — the server's sole orchestrator while it runs — may call
  /// these without crossing a shard boundary).
  void note_resume(std::size_t client);
  void note_idle_reap() { ++stats_.idle_reaped; }
  [[nodiscard]] std::uint64_t client_resumes(std::size_t client) const;

  /// Distinct participants whose uplink for the open round has been
  /// collected so far (first arrival only; duplicates do not advance it).
  /// Orchestrator-owned progress signal for round drivers that wait for
  /// the full draw before committing.
  [[nodiscard]] std::size_t round_distinct_arrivals() const noexcept {
    return round_distinct_;
  }

  /// Per-client state. Only valid at quiescence (after drain()).
  [[nodiscard]] const ClientRecord& client_record(std::size_t client) const;

  /// FPCK section (tag SRV2): version, round counter, global model, stats
  /// and every per-client record, then the defense state (tag DFNS) when
  /// the defense is armed. Restore also reads the older SRVR layout, whose
  /// norm-screen and reputation fields it discards. Requires quiescence;
  /// restoring into a server with a different client count throws
  /// StateMismatchError. The snapshot bytes are identical at any worker
  /// count (per-client state depends only on that client's upload
  /// sequence, never on the shard schedule).
  void save_state(ckpt::Writer& out) const override;
  void restore_state(ckpt::Reader& in) override;

 private:
  enum class Verdict : std::uint8_t {
    kAccepted,
    kCorrupt,
    kNonFinite,
  };

  struct Upload {
    std::size_t client = 0;
    std::uint64_t base_version = 0;
    double weight = 1.0;
    std::vector<std::uint8_t> payload;
  };

  struct Pending {
    std::size_t client = 0;
    std::uint64_t base_version = 0;
    Verdict verdict = Verdict::kCorrupt;
    double weight = 1.0;
    std::size_t payload_bytes = 0;
    std::vector<double> model;  ///< empty unless accepted
    /// The defense screen's verdict on an accepted upload (defense armed).
    fed::ScreenObservation observation;
  };

  struct Shard {
    explicit Shard(std::size_t depth) : inbox(depth), done(depth) {}
    SpscQueue<Upload> inbox;   ///< injector -> worker
    SpscQueue<Pending> done;   ///< worker -> injector
    std::deque<Upload> overflow;  ///< injector-owned backpressure buffer
    std::thread thread;
  };

  void worker_main(std::size_t shard_index);
  void process(Shard& shard, Upload upload);
  void flush_overflow(Shard& shard);
  void collect();
  void absorb(Pending pending);
  void merge_async(const Pending& pending);
  void stop();
  /// The SRV2 fields, or with srvr the SRVR layout of older builds: SRV2
  /// plus norm-screen and reputation fields this build drops.
  template <class Self, class Io>
  static void fields(Self& s, Io& io, bool srvr);
  /// Reads an SRVR snapshot; this build never writes one.
  void read_legacy_srvr(ckpt::Reader& in);

  // lint: ckpt-skip(construction config, fixed for the run) lint: shard-ok(set before start(); read-only afterwards)
  ServeConfig config_;
  const fed::ModelCodec* codec_;  // lint: ckpt-skip(non-owning strategy object; re-wired on resume)
  std::vector<ClientRecord> records_;  // lint: shard-ok(workers read only their own shard's rows; resized only at quiescence)
  // lint: ckpt-skip(shard scratch rebuilt by start()) lint: shard-ok(each worker touches only its own shard slot)
  std::vector<std::unique_ptr<Shard>> shards_;
  util::ParallelFor executor_;  // lint: ckpt-skip(thread pool handle; commits are width-invariant)

  // lint: shard-ok(workers read it only to screen, armed in deterministic mode only, where it is written only at quiescence: initialize, restore_state, commit_round after drain)
  std::vector<double> global_;
  // lint: ckpt-skip(derived from global_.size() on restore) lint: shard-ok(fixed after attach; workers read it only between rounds)
  std::size_t model_size_ = 0;
  // lint: shard-ok(workers only call the pipeline's const screen; the stage changes only at quiescence: enable_defense, restore_state, commit_round after drain)
  std::optional<fed::DefenseStage> defense_;
  std::uint64_t version_ = 0;
  std::size_t rounds_committed_ = 0;

  // In-flight round state: snapshots are taken only at quiescence, between
  // open_round/commit pairs, so none of it can be live in a checkpoint.
  bool round_open_ = false;  // lint: ckpt-skip(in-flight round state; snapshots only at quiescence)
  std::vector<std::size_t> participants_;  // lint: ckpt-skip(in-flight round state; snapshots only at quiescence)
  /// Models only in deterministic mode. lint: ckpt-skip(in-flight round state; snapshots only at quiescence)
  std::vector<Pending> round_records_;
  /// First-arrival flags for the open round. lint: ckpt-skip(in-flight round state; snapshots only at quiescence)
  std::vector<char> round_seen_;
  std::size_t round_distinct_ = 0;  // lint: ckpt-skip(in-flight round state; snapshots only at quiescence)

  ServeStats stats_;
  double staleness_sum_ = 0.0;
  /// Session-resume handshakes per client (orchestrator-owned; the shard
  /// workers never see connection churn).
  std::vector<std::uint64_t> client_resumes_;

  std::size_t submitted_total_ = 0;   // orchestrator-owned
  std::size_t collected_total_ = 0;   // orchestrator-owned
  // Workers bump + notify. lint: ckpt-skip(drains to zero at quiescence; always zero in a snapshot)
  std::atomic<std::uint64_t> processed_total_{0};
  bool stopped_ = false;  // lint: ckpt-skip(lifecycle latch; a restored server restarts its workers)
};

}  // namespace fedpower::serve
