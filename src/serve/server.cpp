#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "ckpt/errors.hpp"
#include "fed/defense.hpp"
#include "util/assert.hpp"

namespace fedpower::serve {

namespace {

/// Sentinel client index the injector enqueues to stop a worker.
constexpr std::size_t kStopClient = std::numeric_limits<std::size_t>::max();

/// Reputation moves: small credit on a clean upload, large debit on a
/// corrupt or non-finite one (asymmetric so one bad frame costs five good
/// ones to recover from).
constexpr double kReputationCredit = 0.05;
constexpr double kReputationDebit = 0.25;

constexpr ckpt::Tag kServerTag{'S', 'R', 'V', 'R'};

}  // namespace

ShardedServer::ShardedServer(std::size_t client_count, ServeConfig config,
                             const fed::ModelCodec* codec)
    : config_(config),
      codec_(codec != nullptr ? codec : &fed::Float32Codec::instance()) {
  FEDPOWER_EXPECTS(client_count >= 1);
  FEDPOWER_EXPECTS(config_.mixing_rate > 0.0 && config_.mixing_rate <= 1.0);
  FEDPOWER_EXPECTS(config_.staleness_power >= 0.0);
  config_.workers = std::max<std::size_t>(1, config_.workers);
  config_.queue_depth = std::max<std::size_t>(2, config_.queue_depth);
  config_.batch_max = std::max<std::size_t>(1, config_.batch_max);
  records_.resize(client_count);
  client_resumes_.assign(client_count, 0);
  shards_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w)
    shards_.push_back(std::make_unique<Shard>(config_.queue_depth));
  for (std::size_t w = 0; w < config_.workers; ++w)
    shards_[w]->thread = std::thread([this, w] { worker_main(w); });
}

ShardedServer::~ShardedServer() { stop(); }

void ShardedServer::initialize(std::vector<double> global) {
  FEDPOWER_EXPECTS(!global.empty());
  global_ = std::move(global);
  model_size_ = global_.size();
}

void ShardedServer::set_executor(util::ParallelFor executor) {
  executor_ = std::move(executor);
}

void ShardedServer::begin_round(std::vector<std::size_t> participants) {
  FEDPOWER_EXPECTS(!round_open_);
  for (const std::size_t p : participants)
    FEDPOWER_EXPECTS(p < records_.size());
  participants_ = std::move(participants);
  std::sort(participants_.begin(), participants_.end());
  round_records_.clear();
  round_accepted_ = 0;
  round_uplink_bytes_ = 0;
  round_seen_.assign(records_.size(), 0);
  round_distinct_ = 0;
  round_open_ = true;
}

void ShardedServer::note_resume(std::size_t client) {
  FEDPOWER_EXPECTS(client < client_resumes_.size());
  ++stats_.resumes;
  ++client_resumes_[client];
}

std::uint64_t ShardedServer::client_resumes(std::size_t client) const {
  FEDPOWER_EXPECTS(client < client_resumes_.size());
  return client_resumes_[client];
}

void ShardedServer::submit(std::size_t client, std::uint64_t base_version,
                           std::span<const std::uint8_t> payload,
                           double weight) {
  FEDPOWER_EXPECTS(client < records_.size());
  FEDPOWER_EXPECTS(!global_.empty());  // initialize() must run first
  Shard& shard = *shards_[client % shards_.size()];
  flush_overflow(shard);
  Upload upload;
  upload.client = client;
  upload.base_version = base_version;
  upload.weight = weight;
  upload.payload.assign(payload.begin(), payload.end());
  // Deferred frames must stay ahead of newer ones (per-shard FIFO), so a
  // non-empty overflow list forces this frame behind it.
  bool queued = false;
  if (shard.overflow.empty()) queued = shard.inbox.try_push(std::move(upload));
  if (!queued) {
    shard.overflow.push_back(std::move(upload));
    ++stats_.deferred;
  }
  ++submitted_total_;
}

void ShardedServer::poll() {
  for (auto& shard : shards_) flush_overflow(*shard);
  collect();
}

void ShardedServer::drain() {
  for (;;) {
    for (auto& shard : shards_) flush_overflow(*shard);
    // Load the progress counter BEFORE collecting: anything a worker
    // finishes after this load but before the wait below changes the
    // counter and makes the wait return immediately, so no wakeup is lost.
    const std::uint64_t before =
        processed_total_.load(std::memory_order_acquire);
    collect();
    bool overflow_empty = true;
    for (const auto& shard : shards_)
      overflow_empty = overflow_empty && shard->overflow.empty();
    if (overflow_empty && collected_total_ == submitted_total_) return;
    processed_total_.wait(before, std::memory_order_acquire);
  }
}

fed::RoundResult ShardedServer::commit_round(std::size_t quorum) {
  FEDPOWER_EXPECTS(round_open_);
  drain();

  fed::RoundResult result;
  result.round = rounds_committed_ + 1;
  result.participants = participants_;

  // Order the buffered verdicts by client index — the deterministic-mode
  // contract — keeping per-client arrival order (stable) so a duplicate
  // submission resolves to the first arrival.
  std::stable_sort(round_records_.begin(), round_records_.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.client < b.client;
                   });

  std::vector<char> is_participant(records_.size(), 0);
  for (const std::size_t p : participants_) is_participant[p] = 1;

  std::vector<std::vector<double>> locals;
  std::vector<double> weights;
  std::vector<char> arrived(records_.size(), 0);
  locals.reserve(round_records_.size());
  for (Pending& p : round_records_) {
    if (!is_participant[p.client]) continue;
    if (arrived[p.client]) {
      // First-arrival dedup: a reconnecting client's re-sent uplink is
      // idempotent — the retry is counted, never aggregated twice.
      ++stats_.duplicates;
      continue;
    }
    arrived[p.client] = 1;
    switch (p.verdict) {
      case Verdict::kAccepted:
        if (config_.mode == CommitMode::kDeterministic) {
          locals.push_back(std::move(p.model));
          weights.push_back(p.weight);
        }
        break;
      case Verdict::kCorrupt:
        result.dropped.push_back(p.client);
        break;
      case Verdict::kNonFinite:
        result.rejected.push_back(p.client);
        break;
      case Verdict::kNormScreened:
        result.screened.push_back(p.client);
        break;
    }
  }
  // Participants that never produced a frame (transport fault upstream, or
  // a client killed mid-round) are dropouts, exactly like the synchronous
  // server's lost set.
  for (const std::size_t p : participants_)
    if (!arrived[p]) result.dropped.push_back(p);
  std::sort(result.dropped.begin(), result.dropped.end());
  result.uplink_bytes = round_uplink_bytes_;

  const std::size_t survivors = config_.mode == CommitMode::kDeterministic
                                    ? locals.size()
                                    : round_accepted_;
  const std::size_t required =
      std::max<std::size_t>(1, std::min(quorum, participants_.size()));
  if (survivors < required) {
    // Abort the round without touching the global model or the round
    // counter (throughput-mode merges already applied stand: in FedAsync
    // a merge is final once made).
    round_records_.clear();
    round_open_ = false;
    throw fed::QuorumError(survivors, required);
  }

  if (config_.mode == CommitMode::kDeterministic) {
    fed::AggregateOutcome outcome;
    global_ = fed::aggregate_with_mode(config_.aggregation, locals, weights,
                                       config_.trim_override, executor_,
                                       outcome);
    result.trim_count = outcome.trim_count;
    result.trim_clamped = outcome.trim_clamped;
    ++version_;
  }

  round_records_.clear();
  round_open_ = false;
  ++rounds_committed_;
  return result;
}

const ClientRecord& ShardedServer::client_record(std::size_t client) const {
  FEDPOWER_EXPECTS(client < records_.size());
  FEDPOWER_EXPECTS(collected_total_ == submitted_total_);  // quiescent only
  return records_[client];
}

void ShardedServer::worker_main(std::size_t shard_index) {
  Shard& shard = *shards_[shard_index];
  std::vector<Upload> batch;
  batch.reserve(config_.batch_max);
  for (;;) {
    batch.clear();
    if (shard.inbox.pop_batch(batch, config_.batch_max) == 0) {
      shard.inbox.wait_for_item();
      continue;
    }
    for (Upload& upload : batch) {
      if (upload.client == kStopClient) return;
      process(shard, std::move(upload));
    }
  }
}

void ShardedServer::process(Shard& shard, Upload upload) {
  Pending pending;
  pending.client = upload.client;
  pending.base_version = upload.base_version;
  pending.weight = upload.weight;
  pending.payload_bytes = upload.payload.size();

  ClientRecord& record = records_[upload.client];
  record.base_version_seen = upload.base_version;
  try {
    pending.model = codec_->decode(upload.payload);
    if (pending.model.size() != model_size_) {
      pending.verdict = Verdict::kCorrupt;  // wrong shape: treat as corrupt
    } else if (fed::any_non_finite(pending.model)) {
      // Shared screening primitive (screening-parity contract, DESIGN.md
      // §13): the exact predicate the synchronous defense pipeline applies,
      // so verdict counters match under identical fault seeds.
      pending.verdict = Verdict::kNonFinite;
    } else {
      pending.verdict = Verdict::kAccepted;
    }
  } catch (const std::invalid_argument&) {
    pending.verdict = Verdict::kCorrupt;  // codec rejected the payload
  }

  if (pending.verdict == Verdict::kAccepted &&
      config_.norm_screen_multiplier > 0.0 &&
      record.norm_count >= config_.norm_min_samples) {
    // Norm screen against the client's OWN accepted-norm history (never
    // cross-shard state, so snapshot bytes stay worker-count invariant).
    // Median and norm come from the same fed:: primitives as the defense
    // pipeline.
    const std::size_t window = static_cast<std::size_t>(
        std::min<std::uint64_t>(record.norm_count, kNormWindow));
    std::vector<double> history(record.norms.begin(),
                                record.norms.begin() +
                                    static_cast<std::ptrdiff_t>(window));
    const double median = fed::robust_median(std::move(history));
    const double norm = fed::l2_norm(pending.model);
    if (median > 0.0 && norm > config_.norm_screen_multiplier * median)
      pending.verdict = Verdict::kNormScreened;
  }

  if (pending.verdict == Verdict::kAccepted) {
    ++record.accepted;
    record.reputation = std::min(1.0, record.reputation + kReputationCredit);
    record.norms[static_cast<std::size_t>(record.norm_count % kNormWindow)] =
        fed::l2_norm(pending.model);
    ++record.norm_count;
  } else {
    if (pending.verdict == Verdict::kCorrupt)
      ++record.corrupt;
    else if (pending.verdict == Verdict::kNormScreened)
      ++record.screened;
    else
      ++record.rejected;
    record.reputation = std::max(0.0, record.reputation - kReputationDebit);
    pending.model.clear();
  }

  for (;;) {
    if (shard.done.try_push(std::move(pending))) break;
    shard.done.wait_for_space();
  }
  processed_total_.fetch_add(1, std::memory_order_release);
  processed_total_.notify_one();
}

void ShardedServer::flush_overflow(Shard& shard) {
  while (!shard.overflow.empty()) {
    if (!shard.inbox.try_push(std::move(shard.overflow.front()))) return;
    shard.overflow.pop_front();
  }
}

void ShardedServer::collect() {
  Pending pending;
  for (auto& shard : shards_) {
    while (shard->done.try_pop(pending)) {
      ++collected_total_;
      absorb(std::move(pending));
    }
  }
}

void ShardedServer::absorb(Pending pending) {
  // Round-replay guard (deterministic mode): an uplink whose base version
  // predates the current global model arrived after the round it was
  // trained for committed — a reconnecting client's re-send crossing the
  // commit boundary, not a contribution to the open round. Admitting it
  // would aggregate a stale model into a later round (and first-arrival
  // dedup would then bounce that client's genuine fresh upload), so it is
  // resolved here with the other duplicates. Throughput mode is untouched:
  // it merges stale uploads under staleness discounting by design.
  if (config_.mode == CommitMode::kDeterministic && round_open_ &&
      pending.base_version < version_) {
    ++stats_.duplicates;
    return;
  }
  switch (pending.verdict) {
    case Verdict::kAccepted:
      ++stats_.uplinks_accepted;
      break;
    case Verdict::kCorrupt:
      ++stats_.uplinks_corrupt;
      break;
    case Verdict::kNonFinite:
      ++stats_.uplinks_rejected;
      break;
    case Verdict::kNormScreened:
      ++stats_.uplinks_screened;
      break;
  }
  if (pending.verdict == Verdict::kAccepted) {
    if (config_.mode == CommitMode::kThroughput) {
      merge_async(pending);
      pending.model.clear();  // merged; only the verdict feeds the round log
    }
    if (round_open_) {
      ++round_accepted_;
      round_uplink_bytes_ += pending.payload_bytes;
    }
  }
  if (round_open_) {
    // Distinct-arrival progress: the first frame a client lands this round
    // (whatever its verdict) moves the counter; retries do not. Round
    // drivers over lossy transports wait on this before committing.
    if (round_seen_[pending.client] == 0) {
      round_seen_[pending.client] = 1;
      ++round_distinct_;
    }
    round_records_.push_back(std::move(pending));
  }
}

void ShardedServer::merge_async(const Pending& pending) {
  FEDPOWER_ASSERT(!global_.empty());
  const std::uint64_t base = std::min(pending.base_version, version_);
  const double staleness = static_cast<double>(version_ - base);
  const double weight =
      config_.mixing_rate /
      std::pow(1.0 + staleness, config_.staleness_power);
  const std::vector<double>& local = pending.model;
  // Per-coordinate blend, sharded across the executor for large models
  // with bit-identical results (coordinates are independent).
  if (executor_ && global_.size() >= fed::kParallelAggregationMinWork) {
    executor_(global_.size(), [&](std::size_t i) {
      global_[i] = (1.0 - weight) * global_[i] + weight * local[i];
    });
  } else {
    for (std::size_t i = 0; i < global_.size(); ++i)
      global_[i] = (1.0 - weight) * global_[i] + weight * local[i];
  }
  ++version_;
  ++stats_.merges;
  staleness_sum_ += staleness;
  stats_.max_staleness = std::max(stats_.max_staleness, staleness);
  stats_.mean_staleness =
      staleness_sum_ / static_cast<double>(stats_.merges);
}

void ShardedServer::stop() {
  if (stopped_) return;
  for (auto& shard : shards_) {
    for (;;) {
      flush_overflow(*shard);
      if (shard->overflow.empty()) {
        Upload sentinel;
        sentinel.client = kStopClient;
        if (shard->inbox.try_push(std::move(sentinel))) break;
      }
      // The shard is backed up: free done-queue slots (a worker may be
      // parked on a full done queue) and wait for the worker to make room.
      collect();
      shard->inbox.wait_for_space();
    }
  }
  for (auto& shard : shards_)
    if (shard->thread.joinable()) shard->thread.join();
  collect();  // absorb any verdicts that finished after the last poll
  stopped_ = true;
}

void ShardedServer::save_state(ckpt::Writer& out) const {
  FEDPOWER_EXPECTS(collected_total_ == submitted_total_);  // quiescent only
  ckpt::write_tag(out, kServerTag);
  out.u64(records_.size());
  out.u64(version_);
  out.u64(rounds_committed_);
  out.vec_f64(global_);
  out.u64(stats_.uplinks_accepted);
  out.u64(stats_.uplinks_corrupt);
  out.u64(stats_.uplinks_rejected);
  out.u64(stats_.uplinks_screened);
  out.u64(stats_.deferred);
  out.u64(stats_.merges);
  out.u64(stats_.duplicates);
  out.u64(stats_.resumes);
  out.u64(stats_.idle_reaped);
  out.f64(stats_.max_staleness);
  out.f64(staleness_sum_);
  for (const std::uint64_t r : client_resumes_) out.u64(r);
  for (const ClientRecord& record : records_) {
    out.u64(record.base_version_seen);
    out.u64(record.accepted);
    out.u64(record.corrupt);
    out.u64(record.rejected);
    out.u64(record.screened);
    out.u64(record.norm_count);
    out.f64(record.reputation);
    for (const double n : record.norms) out.f64(n);
  }
}

void ShardedServer::restore_state(ckpt::Reader& in) {
  FEDPOWER_EXPECTS(collected_total_ == submitted_total_);  // quiescent only
  ckpt::expect_tag(in, kServerTag, "sharded federation server");
  const std::uint64_t client_count = in.u64();
  if (client_count != records_.size())
    throw ckpt::StateMismatchError(
        "server snapshot was taken with " + std::to_string(client_count) +
        " client(s), this server has " + std::to_string(records_.size()));
  version_ = in.u64();
  rounds_committed_ = static_cast<std::size_t>(in.u64());
  global_ = in.vec_f64();
  model_size_ = global_.size();
  stats_.uplinks_accepted = static_cast<std::size_t>(in.u64());
  stats_.uplinks_corrupt = static_cast<std::size_t>(in.u64());
  stats_.uplinks_rejected = static_cast<std::size_t>(in.u64());
  stats_.uplinks_screened = static_cast<std::size_t>(in.u64());
  stats_.deferred = static_cast<std::size_t>(in.u64());
  stats_.merges = static_cast<std::size_t>(in.u64());
  stats_.duplicates = static_cast<std::size_t>(in.u64());
  stats_.resumes = static_cast<std::size_t>(in.u64());
  stats_.idle_reaped = static_cast<std::size_t>(in.u64());
  stats_.max_staleness = in.f64();
  staleness_sum_ = in.f64();
  for (std::uint64_t& r : client_resumes_) r = in.u64();
  stats_.mean_staleness =
      stats_.merges > 0
          ? staleness_sum_ / static_cast<double>(stats_.merges)
          : 0.0;
  for (ClientRecord& record : records_) {
    record.base_version_seen = in.u64();
    record.accepted = in.u64();
    record.corrupt = in.u64();
    record.rejected = in.u64();
    record.screened = in.u64();
    record.norm_count = in.u64();
    record.reputation = in.f64();
    for (double& n : record.norms) n = in.f64();
  }
}

}  // namespace fedpower::serve
