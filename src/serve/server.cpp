#include "serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "ckpt/fields.hpp"
#include "fed/defense.hpp"
#include "util/assert.hpp"

namespace fedpower::serve {

namespace {

/// Sentinel client index the injector enqueues to stop a worker.
constexpr std::size_t kStopClient = std::numeric_limits<std::size_t>::max();

constexpr ckpt::Tag kServerTag{'S', 'R', 'V', '2'};
/// SRV2 plus a norm-screen counter and, per client, a screened count, a
/// norm-ring cursor, a reputation and an 8-slot norm ring.
constexpr ckpt::Tag kLegacyServerTag{'S', 'R', 'V', 'R'};

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

void ShardedServer::enable_defense(const fed::DefenseConfig& config) {
  FEDPOWER_EXPECTS(!round_open_);
  FEDPOWER_EXPECTS(collected_total_ == submitted_total_);  // quiescent only
  if (!config.enabled) {
    defense_.reset();
    return;
  }
  FEDPOWER_EXPECTS(config_.mode == CommitMode::kDeterministic);
  defense_.emplace(config, records_.size());
}

void ShardedServer::begin_round(std::vector<std::size_t> participants) {
  FEDPOWER_EXPECTS(!round_open_);
  for (const std::size_t p : participants)
    FEDPOWER_EXPECTS(p < records_.size());
  participants_ = std::move(participants);
  std::sort(participants_.begin(), participants_.end());
  if (defense_) defense_->begin_round(participants_);
  round_records_.clear();
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

  // Each participant's first arrival, in client order, as LocalCommitter
  // takes an upload: a finite one counts its bytes and goes where the
  // defense stage admits it.
  std::vector<std::vector<double>> locals;
  std::vector<double> weights;
  std::vector<char> arrived(records_.size(), 0);
  std::size_t survivors = 0;
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
      case Verdict::kAccepted: {
        result.uplink_bytes += p.payload_bytes;
        const fed::Admission admission =
            defense_ ? defense_->admit(p.observation)
                     : fed::Admission::kAggregate;
        if (admission == fed::Admission::kScreened)
          result.screened.push_back(p.client);
        if (admission != fed::Admission::kAggregate) break;
        ++survivors;
        if (config_.mode == CommitMode::kDeterministic) {
          locals.push_back(std::move(p.model));
          weights.push_back(p.weight);
        }
        break;
      }
      case Verdict::kCorrupt:
        result.dropped.push_back(p.client);
        break;
      case Verdict::kNonFinite:
        result.rejected.push_back(p.client);
        if (defense_)
          defense_->admit(defense_->pipeline().non_finite(p.client));
        break;
    }
  }
  // Participants that never produced a frame (transport fault upstream, or
  // a client killed mid-round) are dropouts, exactly like the synchronous
  // server's lost set.
  for (const std::size_t p : participants_)
    if (!arrived[p]) result.dropped.push_back(p);
  std::sort(result.dropped.begin(), result.dropped.end());
  if (defense_) result.quarantined = defense_->quarantined();

  const std::size_t required = fed::required_survivors(
      quorum, participants_.size(), result.quarantined.size());
  if (survivors < required) {
    // Abort the round without touching the global model or the round
    // counter (throughput-mode merges already applied stand: in FedAsync
    // a merge is final once made).
    round_records_.clear();
    round_open_ = false;
    throw fed::QuorumError(survivors, required);
  }

  if (config_.mode == CommitMode::kDeterministic) {
    global_ = fed::aggregate_with_mode(config_.aggregation, locals, weights,
                                       executor_, result.trim_count);
    ++version_;
  }
  if (defense_) {
    fed::DefenseRoundLog log = defense_->commit();
    result.readmitted = std::move(log.readmitted);
    result.clipped = log.clipped;
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
      pending.verdict = Verdict::kNonFinite;
    } else {
      pending.verdict = Verdict::kAccepted;
    }
  } catch (const std::invalid_argument&) {
    pending.verdict = Verdict::kCorrupt;  // codec rejected the payload
  }

  switch (pending.verdict) {
    case Verdict::kAccepted:
      ++record.accepted;
      // The screen is const and global_ only moves while the workers are
      // idle, so every shard screens against the model the round started
      // from. It may clip the row in place.
      if (defense_)
        pending.observation = defense_->pipeline().screen(
            upload.client, pending.model, global_);
      break;
    case Verdict::kCorrupt:
      ++record.corrupt;
      pending.model.clear();
      break;
    case Verdict::kNonFinite:
      ++record.rejected;
      pending.model.clear();
      break;
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
  }
  if (pending.verdict == Verdict::kAccepted &&
      config_.mode == CommitMode::kThroughput) {
    merge_async(pending);
    pending.model.clear();  // merged; only the verdict feeds the round log
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

template <class Self, class Io>
void ShardedServer::fields(Self& s, Io& io, bool srvr) {
  FEDPOWER_EXPECTS(s.collected_total_ == s.submitted_total_);  // quiescent
  // SRVR, of builds that kept a norm screen and a reputation in the
  // server, adds fields that this build reads into `dropped`.
  std::uint64_t dropped = 0;
  double dropped_f64 = 0.0;
  io.tag(srvr ? kLegacyServerTag : kServerTag, "sharded federation server");
  io.expect_count(s.records_.size(), "client(s)");
  io.u64(s.version_, s.rounds_committed_);
  io.vec(s.global_);
  auto& st = s.stats_;
  io.u64(st.uplinks_accepted, st.uplinks_corrupt, st.uplinks_rejected);
  if (srvr) io.u64(dropped);  // norm-screen rejects
  io.u64(st.deferred, st.merges, st.duplicates, st.resumes, st.idle_reaped);
  io.f64(st.max_staleness, s.staleness_sum_);
  for (auto& resumes : s.client_resumes_) io.u64(resumes);
  for (auto& r : s.records_) {
    io.u64(r.base_version_seen, r.accepted, r.corrupt, r.rejected);
    if (!srvr) continue;
    io.u64(dropped, dropped);  // norm-screen rejects, norm-ring cursor
    for (int n = 0; n < 1 + 8; ++n) io.f64(dropped_f64);  // reputation, ring
  }
  // Appended only when the defense is armed, as LocalCommitter does.
  if (s.defense_) io.section(*s.defense_);
}

void ShardedServer::save_state(ckpt::Writer& out) const {
  ckpt::Save io(out);
  fields(*this, io, /*srvr=*/false);
}

void ShardedServer::restore_state(ckpt::Reader& in) {
  if (ckpt::next_tag_is(in, kLegacyServerTag)) {
    read_legacy_srvr(in);  // lint: ckpt-sym-ok(SRVR is only read)
  } else {
    ckpt::Load io(in);
    fields(*this, io, /*srvr=*/false);
  }
  model_size_ = global_.size();
  stats_.mean_staleness =
      stats_.merges > 0
          ? staleness_sum_ / static_cast<double>(stats_.merges)
          : 0.0;
}

void ShardedServer::read_legacy_srvr(ckpt::Reader& in) {
  ckpt::Load io(in);
  fields(*this, io, /*srvr=*/true);
}

}  // namespace fedpower::serve
