#include "fed/federation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "ckpt/fields.hpp"
#include "util/assert.hpp"

namespace fedpower::fed {

std::size_t RoundResult::effective_clients() const noexcept {
  // The exclusion lists are each sorted, but a client can appear in more
  // than one (e.g. quarantined and then lost to a transport fault), so the
  // categories must be counted as a set union, not summed. A 4-way sorted
  // merge stays allocation-free, which keeps this noexcept.
  const std::vector<std::size_t>* lists[] = {&dropped, &rejected, &screened,
                                             &quarantined};
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::size_t cursor[] = {0, 0, 0, 0};
  std::size_t excluded = 0;
  for (;;) {
    std::size_t next = kNone;
    for (std::size_t l = 0; l < 4; ++l) {
      const auto& list = *lists[l];
      if (cursor[l] < list.size() && list[cursor[l]] < next)
        next = list[cursor[l]];
    }
    if (next == kNone) break;
    for (std::size_t l = 0; l < 4; ++l) {
      const auto& list = *lists[l];
      while (cursor[l] < list.size() && list[cursor[l]] == next) ++cursor[l];
    }
    ++excluded;
  }
  return excluded <= participants.size() ? participants.size() - excluded
                                         : std::size_t{0};
}

namespace {
constexpr ckpt::Tag kFedTag{'F', 'A', 'V', 'G'};
constexpr ckpt::Tag kCommitterFedTag{'S', 'F', 'E', 'D'};
}  // namespace

LocalCommitter::LocalCommitter(std::size_t client_count, AggregationMode mode,
                               const ModelCodec* codec)
    : mode_(mode),
      codec_(codec != nullptr ? codec : &Float32Codec::instance()),
      status_(client_count, Status::kIdle) {}

void LocalCommitter::initialize(std::vector<double> global) {
  FEDPOWER_EXPECTS(!global.empty());
  global_ = std::move(global);
}

void LocalCommitter::set_executor(util::ParallelFor executor) {
  executor_ = std::move(executor);
}

void LocalCommitter::enable_defense(const DefenseConfig& config) {
  if (config.enabled)
    defense_.emplace(config, status_.size());
  else
    defense_.reset();
}

void LocalCommitter::clear_round() {
  for (std::vector<double>& row : locals_)
    spare_rows_.push_back(std::move(row));
  locals_.clear();
  weights_.clear();
  accepted_ = 0;
  uplink_bytes_ = 0;
}

void LocalCommitter::begin_round(std::vector<std::size_t> participants) {
  FEDPOWER_EXPECTS(std::is_sorted(participants.begin(), participants.end()));
  // A round abandoned between begin and commit (an exception in local
  // training) leaves its verdicts behind; they belong to no round.
  for (const std::size_t i : participants_) status_[i] = Status::kIdle;
  clear_round();
  participants_ = std::move(participants);
  for (const std::size_t i : participants_) {
    FEDPOWER_EXPECTS(i < status_.size());
    status_[i] = Status::kAwaiting;
  }
  if (defense_) defense_->begin_round(participants_);
}

void LocalCommitter::submit(std::size_t client, std::uint64_t /*base_version*/,
                            std::span<const std::uint8_t> payload,
                            double weight) {
  FEDPOWER_EXPECTS(client < status_.size());
  Status& status = status_[client];
  FEDPOWER_EXPECTS(status == Status::kAwaiting);
  // The row stays in the pool on every early return below.
  if (spare_rows_.empty()) spare_rows_.emplace_back();
  std::vector<double>& local = spare_rows_.back();
  try {
    codec_->decode_into(payload, local);
  } catch (const std::invalid_argument&) {
    status = Status::kDropped;  // payload damaged in flight, codec rejected it
    return;
  }
  if (local.size() != global_.size()) {
    status = Status::kDropped;  // decoded to the wrong shape: treat as corrupt
    return;
  }
  // Server-side screening: a NaN or infinity anywhere in an upload would
  // poison every mean-style aggregate, so a diverged (or malicious) model is
  // excluded exactly like a transport dropout.
  if (any_non_finite(local)) {
    status = Status::kRejected;
    if (defense_) defense_->admit(defense_->pipeline().non_finite(client));
    return;
  }
  uplink_bytes_ += payload.size();
  status = Status::kDelivered;
  if (defense_) {
    // Screening may clip `local` in place; the verdict only feeds the
    // reputation update after the quorum holds (commit_round below).
    const Admission admission =
        defense_->admit(defense_->pipeline().screen(client, local, global_));
    if (admission == Admission::kScreened) status = Status::kScreened;
    if (admission != Admission::kAggregate) return;
  }
  // Uploads arrive in client-index order, the order locals_ would hold
  // them in, so the running sum adds exactly what average_unweighted would.
  if (streams_mean()) {
    if (accepted_ == 0) sum_.assign(local.size(), 0.0);
    add_to_mean_sum(sum_, local);
  } else {
    locals_.push_back(std::move(local));
    spare_rows_.pop_back();
    weights_.push_back(weight);
  }
  ++accepted_;
}

RoundResult LocalCommitter::commit_round(std::size_t quorum) {
  RoundResult result;
  for (const std::size_t i : participants_) {
    switch (status_[i]) {
      case Status::kAwaiting:  // lost upstream, or demoted by the deadline
      case Status::kDropped:
        result.dropped.push_back(i);
        break;
      case Status::kRejected:
        result.rejected.push_back(i);
        break;
      case Status::kScreened:
        result.screened.push_back(i);
        break;
      case Status::kIdle:
      case Status::kDelivered:
        break;
    }
    status_[i] = Status::kIdle;
  }
  result.participants = std::move(participants_);
  participants_.clear();
  if (defense_) result.quarantined = defense_->quarantined();
  result.uplink_bytes = uplink_bytes_;

  // An aborted round drops its screening observations: reputations only
  // move on completed rounds.
  const std::size_t required = required_survivors(
      quorum, result.participants.size(), result.quarantined.size());
  if (accepted_ < required) {
    const std::size_t survivors = accepted_;
    clear_round();
    throw QuorumError(survivors, required);
  }

  // theta_{r+1} (line 8). The streamed mean only scales its sum, with the
  // arithmetic average_unweighted uses. Every other rule goes through
  // aggregate_with_mode, shared with the serve pipeline's deterministic
  // commit so both paths run the exact same floating-point operations;
  // large fleets shard its coordinate reduction across the executor
  // (bit-identical to serial; see aggregate.hpp).
  if (streams_mean()) {
    finish_mean(sum_, accepted_, global_);
  } else {
    global_ = aggregate_with_mode(mode_, locals_, weights_, executor_,
                                  result.trim_count);
  }
  if (defense_) {
    DefenseRoundLog log = defense_->commit();
    result.readmitted = std::move(log.readmitted);
    result.clipped = log.clipped;
  }
  clear_round();
  return result;
}

template <class Self, class Io>
void LocalCommitter::fields(Self& s, Io& io) {
  io.vec(s.global_);
  // Appended only when the defense pipeline is armed: clean-run snapshots
  // keep the pre-defense byte format.
  if (s.defense_) io.section(*s.defense_);
}

FEDPOWER_CKPT_FIELDS(LocalCommitter)

FederatedAveraging::FederatedAveraging(std::vector<FederatedClient*> clients,
                                       Transport* transport,
                                       ckpt::Tag snapshot_tag)
    : clients_(std::move(clients)),
      transport_(transport),
      snapshot_tag_(snapshot_tag) {
  FEDPOWER_EXPECTS(!clients_.empty());
  FEDPOWER_EXPECTS(transport_ != nullptr);
  for (const auto* client : clients_) FEDPOWER_EXPECTS(client != nullptr);
  client_transports_.assign(clients_.size(), nullptr);
}

FederatedAveraging::FederatedAveraging(std::vector<FederatedClient*> clients,
                                       Transport* transport,
                                       AggregationMode mode,
                                       const ModelCodec* codec)
    : FederatedAveraging(std::move(clients), transport, kFedTag) {
  local_ = std::make_unique<LocalCommitter>(clients_.size(), mode, codec);
  committer_ = local_.get();
}

FederatedAveraging::FederatedAveraging(std::vector<FederatedClient*> clients,
                                       Transport* transport,
                                       RoundCommitter* committer)
    : FederatedAveraging(std::move(clients), transport, kCommitterFedTag) {
  FEDPOWER_EXPECTS(committer != nullptr);
  committer_ = committer;
}

void FederatedAveraging::initialize(std::vector<double> global) {
  FEDPOWER_EXPECTS(!global.empty());
  committer_->initialize(std::move(global));
}

void FederatedAveraging::set_sampling(const SamplingConfig& config) {
  FEDPOWER_EXPECTS(config.fraction > 0.0 && config.fraction <= 1.0);
  FEDPOWER_EXPECTS(config.min_clients >= 1);
  sampling_ = config;
  participation_rng_ = util::Rng{config.seed};
}

void FederatedAveraging::set_quorum(std::size_t min_survivors) {
  FEDPOWER_EXPECTS(min_survivors >= 1 && min_survivors <= clients_.size());
  quorum_ = min_survivors;
}

void FederatedAveraging::set_client_transport(std::size_t client,
                                              Transport* transport) {
  FEDPOWER_EXPECTS(client < clients_.size());
  FEDPOWER_EXPECTS(transport != nullptr);
  client_transports_[client] = transport;
}

void FederatedAveraging::enable_defense(const DefenseConfig& config) {
  FEDPOWER_EXPECTS(!config.enabled || rounds_completed_ == 0);
  committer_->enable_defense(config);
}

void FederatedAveraging::set_round_deadline(double seconds) {
  FEDPOWER_EXPECTS(seconds >= 0.0);
  deadline_s_ = seconds;
}

void FederatedAveraging::set_local_executor(util::ParallelFor executor) {
  executor_ = std::move(executor);
  committer_->set_executor(executor_);
}

Transport& FederatedAveraging::transport_for(std::size_t client) noexcept {
  Transport* t = client_transports_[client];
  return t != nullptr ? *t : *transport_;
}

std::vector<std::size_t> FederatedAveraging::draw_participants() {
  // Full participation consumes no randomness: the historic RNG stream
  // shape of fraction = 1 runs is part of the checkpoint contract.
  const bool full = sampling_.fraction >= 1.0;
  // Partition out quarantined clients (quarantine-aware sampling): the
  // C-fraction draw is spent on clients whose uploads can reach the
  // aggregate; quarantined clients ride along as probation participants
  // below. With defense off, awareness disabled or nobody quarantined,
  // every client is eligible, the fleet-wide partition is skipped, and the
  // shuffle consumes exactly the historic stream.
  const DefensePipeline* defense = committer_->defense();
  const std::size_t quarantined =
      !full && defense != nullptr && sampling_.quarantine_aware
          ? defense->quarantined_count()
          : 0;
  std::vector<std::size_t> eligible(quarantined == 0 ? clients_.size() : 0);
  std::vector<std::size_t> riders;
  if (quarantined == 0) {
    std::iota(eligible.begin(), eligible.end(), std::size_t{0});
  } else {
    eligible.reserve(clients_.size() - quarantined);
    riders.reserve(quarantined);
    for (std::size_t i = 0; i < clients_.size(); ++i)
      (defense->quarantined(i) ? riders : eligible).push_back(i);
  }
  if (full) return eligible;
  if (eligible.empty()) return riders;  // probation-only round

  const auto ceil_fraction = static_cast<std::size_t>(std::ceil(
      sampling_.fraction * static_cast<double>(eligible.size())));
  const std::size_t count =
      std::min(eligible.size(),
               std::max({std::size_t{1}, sampling_.min_clients,
                         ceil_fraction}));
  participation_rng_.shuffle(eligible);
  // A result sized once for the draw plus the probation riders, so the
  // fleet-sized buffer is freed before the round. Riders are quarantined
  // clients that participate every round (their uploads feed re-admission
  // streaks, never the aggregate), so quarantine can end even when C is
  // small.
  std::vector<std::size_t> drawn;
  drawn.reserve(count + riders.size());
  drawn.assign(eligible.begin(),
               eligible.begin() + static_cast<std::ptrdiff_t>(count));
  drawn.insert(drawn.end(), riders.begin(), riders.end());
  std::sort(drawn.begin(), drawn.end());
  return drawn;
}

namespace {

/// Moves `payload` through `link` and back, adding the retries the link
/// made for this transfer to `retries`, also when the transfer throws.
/// Transfers are serial, so the delta of the link's counter is exactly this
/// transfer's share even when several decorators share one inner link.
void send(Transport& link, Direction direction,
          std::vector<std::uint8_t>& payload, std::size_t& retries) {
  const std::size_t before = link.stats().retries;
  try {
    payload = link.transfer(direction, std::move(payload));
  } catch (...) {
    retries += link.stats().retries - before;
    throw;
  }
  retries += link.stats().retries - before;
}

}  // namespace

RoundResult FederatedAveraging::run_round() {
  const std::vector<double>& global = global_model();
  FEDPOWER_EXPECTS(!global.empty());
  const ModelCodec& codec = committer_->codec();
  const std::vector<std::size_t> participants = draw_participants();
  committer_->begin_round(participants);
  const std::uint64_t base_version = committer_->version();
  std::size_t retries = 0;

  // Broadcast theta_r to every participating client (Algorithm 2 line 3).
  // Each client receives its own transfer, as over a real network; a
  // client whose link faults is dropped for the round but must not abort
  // it (FedAvg with partial participation covers the survivors). With a
  // deadline armed, each reached client's downlink latency is kept beside
  // it for the uplink check below. Transfers are serial in client-index
  // order, so the cumulative-latency delta around one transfer is exactly
  // that client's share even when clients share a link. Every transfer
  // moves through the driver's reused buffers, so the driver allocates
  // nothing per participant. The broadcast is decoded once: a client whose
  // link delivers its bytes unchanged receives that decode, and only bytes
  // a transport changed (fault injection truncates or corrupts them) are
  // decoded again, so every client receives what decoding its own bytes
  // gives.
  const bool deadline_armed = deadline_s_ > 0.0;
  std::vector<std::size_t> training;
  std::vector<double> downlink_latency;
  training.reserve(participants.size());
  std::size_t downlink_bytes = 0;
  codec.encode_into(global, broadcast_payload_);
  bool broadcast_decodes = true;
  try {
    codec.decode_into(broadcast_payload_, broadcast_params_);
  } catch (const std::invalid_argument&) {
    broadcast_decodes = false;  // so every unchanged copy is rejected below
  }
  for (const std::size_t i : participants) {
    Transport& link = transport_for(i);
    const double latency_before =
        deadline_armed ? link.cumulative_latency_s() : 0.0;
    downlink_payload_.assign(broadcast_payload_.begin(),
                             broadcast_payload_.end());
    try {
      send(link, Direction::kDownlink, downlink_payload_, retries);
      const std::vector<double>* params = &broadcast_params_;
      if (downlink_payload_ != broadcast_payload_) {
        codec.decode_into(downlink_payload_, downlink_params_);
        params = &downlink_params_;
      } else if (!broadcast_decodes) {
        continue;  // the codec rejects the broadcast itself
      }
      clients_[i]->receive_global(*params);
      downlink_bytes += downlink_payload_.size();
    } catch (const TransportError&) {
      continue;  // unreachable device
    } catch (const std::invalid_argument&) {
      continue;  // payload damaged in flight, codec rejected it
    }
    training.push_back(i);
    if (deadline_armed)
      downlink_latency.push_back(link.cumulative_latency_s() - latency_before);
  }

  // Local optimization (line 5): every reached participant trains its
  // steps_per_round local steps, in parallel when an executor is set (one
  // client = one task). The barrier at the end of for_each_index is what
  // makes the round synchronous; clients own disjoint state, so the
  // schedule cannot change what they learn and the result matches the
  // serial loop bit for bit.
  util::for_each_index(executor_, training.size(), [&](std::size_t k) {
    clients_[training[k]]->run_local_round();
  });

  // Upload (line 6), serial and in client-index order — transports are not
  // thread-safe, fault-injection streams must see one deterministic
  // transfer sequence, and the committer's screens accumulate history in
  // client order (DESIGN.md §7). A client whose upload is lost never
  // reaches the committer, which books it as a dropout.
  std::vector<std::size_t> stragglers;
  for (std::size_t k = 0; k < training.size(); ++k) {
    const std::size_t i = training[k];
    Transport& link = transport_for(i);
    try {
      const double latency_before =
          deadline_armed ? link.cumulative_latency_s() : 0.0;
      clients_[i]->copy_local_parameters_to(uplink_params_);
      codec.encode_into(uplink_params_, uplink_payload_);
      send(link, Direction::kUplink, uplink_payload_, retries);
      // Deadline demotion: a client whose downlink + uplink latency blew
      // the round budget is a dropout, not a suspect — its upload is
      // discarded before the committer sees it, so no defense observation
      // is recorded and an honest-but-slow client keeps its reputation
      // (DESIGN.md §13).
      if (deadline_armed &&
          downlink_latency[k] + (link.cumulative_latency_s() -
                                 latency_before) > deadline_s_) {
        stragglers.push_back(i);
        continue;
      }
      committer_->submit(
          i, base_version, uplink_payload_,
          static_cast<double>(clients_[i]->local_sample_count()));
    } catch (const TransportError&) {
      // Lost in flight: never submitted, so the committer books a dropout.
    } catch (const std::invalid_argument&) {
      // Damaged in flight: likewise a dropout.
    }
  }

  // The committer reports dropouts, verdicts and uplink bytes and moves
  // the global model (line 8); the driver adds what only it saw.
  RoundResult result = committer_->commit_round(quorum_);
  result.round = rounds_completed_ + 1;
  result.stragglers = std::move(stragglers);
  result.downlink_bytes = downlink_bytes;
  result.transport_retries = retries;
  ++rounds_completed_;
  return result;
}

void FederatedAveraging::run(std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) run_round();
}

template <class Self, class Io>
void FederatedAveraging::fields(Self& s, Io& io) {
  io.tag(s.snapshot_tag_, "federated averaging driver");
  io.expect_count(s.clients_.size(), "client(s)");
  io.u64(s.rounds_completed_);
  io.rng(s.participation_rng_);
  io.section(*s.committer_);
}

void FederatedAveraging::save_state(ckpt::Writer& out) const {
  ckpt::Save io(out);
  fields(*this, io);
}

void FederatedAveraging::restore_state(ckpt::Reader& in) {
  ckpt::Load io(in);
  fields(*this, io);
  // An uninitialized client reports an empty model, which says nothing
  // about shape; only a client that already holds parameters can expose a
  // snapshot/fleet mismatch.
  const std::size_t model_params = global_model().size();
  const std::size_t client_params =
      clients_.front()->local_parameters().size();
  if (model_params != 0 && client_params != 0 &&
      model_params != client_params)
    throw ckpt::StateMismatchError(
        "federation snapshot global model has " +
        std::to_string(model_params) +
        " parameter(s), the clients' models have " +
        std::to_string(client_params));
}

}  // namespace fedpower::fed
