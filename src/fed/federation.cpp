#include "fed/federation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "ckpt/state_io.hpp"
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

FederatedAveraging::FederatedAveraging(std::vector<FederatedClient*> clients,
                                       Transport* transport,
                                       AggregationMode mode,
                                       const ModelCodec* codec)
    : clients_(std::move(clients)),
      transport_(transport),
      mode_(mode),
      codec_(codec != nullptr ? codec : &Float32Codec::instance()) {
  FEDPOWER_EXPECTS(!clients_.empty());
  FEDPOWER_EXPECTS(transport_ != nullptr);
  for (const auto* client : clients_) FEDPOWER_EXPECTS(client != nullptr);
  client_transports_.assign(clients_.size(), nullptr);
}

FederatedAveraging::FederatedAveraging(std::vector<FederatedClient*> clients,
                                       Transport* transport,
                                       RoundCommitter* committer)
    : FederatedAveraging(std::move(clients), transport,
                         AggregationMode::kUnweightedMean,
                         committer != nullptr ? &committer->codec() : nullptr) {
  FEDPOWER_EXPECTS(committer != nullptr);
  committer_ = committer;
}

void FederatedAveraging::initialize(std::vector<double> global) {
  FEDPOWER_EXPECTS(!global.empty());
  if (committer_ != nullptr)
    committer_->initialize(std::move(global));
  else
    global_ = std::move(global);
}

void FederatedAveraging::set_sampling(const SamplingConfig& config) {
  FEDPOWER_EXPECTS(config.fraction > 0.0 && config.fraction <= 1.0);
  FEDPOWER_EXPECTS(config.min_clients >= 1);
  sampling_ = config;
  participation_rng_ = util::Rng{config.seed};
}

void FederatedAveraging::set_participation(double fraction,
                                           std::uint64_t seed) {
  SamplingConfig config;
  config.fraction = fraction;
  config.seed = seed;
  set_sampling(config);
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
  transport_dedup_stale_ = true;
}

void FederatedAveraging::enable_defense(const DefenseConfig& config) {
  if (!config.enabled) {
    defense_.reset();
    return;
  }
  FEDPOWER_EXPECTS(rounds_completed_ == 0);
  FEDPOWER_EXPECTS(committer_ == nullptr);
  defense_.emplace(config, clients_.size());
}

void FederatedAveraging::set_round_deadline(double seconds) {
  FEDPOWER_EXPECTS(seconds >= 0.0);
  deadline_s_ = seconds;
}

void FederatedAveraging::set_trim_count(std::size_t trim_count) {
  trim_count_override_ = true;
  trim_count_ = trim_count;
}

void FederatedAveraging::set_local_executor(util::ParallelFor executor) {
  executor_ = std::move(executor);
  if (committer_ != nullptr) committer_->set_executor(executor_);
}

Transport& FederatedAveraging::transport_for(std::size_t client) noexcept {
  Transport* t = client_transports_[client];
  return t != nullptr ? *t : *transport_;
}

std::size_t FederatedAveraging::total_transport_retries() const {
  // Retry accounting runs twice per round; the historic implementation
  // deduplicated with an O(n^2) std::find over a pointer vector, which is
  // pathological once every client owns its own transport (100k clients =
  // 10^10 pointer compares per round). Sort-based dedup instead, cached
  // until the transport wiring changes. Address order is not stable across
  // runs, but the sum over the distinct set is order-independent, so the
  // result stays deterministic.
  if (transport_dedup_stale_) {
    transport_dedup_.clear();
    transport_dedup_.reserve(client_transports_.size() + 1);
    transport_dedup_.push_back(transport_);
    for (const Transport* t : client_transports_)
      if (t != nullptr) transport_dedup_.push_back(t);
    std::sort(transport_dedup_.begin(), transport_dedup_.end());
    transport_dedup_.erase(
        std::unique(transport_dedup_.begin(), transport_dedup_.end()),
        transport_dedup_.end());
    transport_dedup_stale_ = false;
  }
  std::size_t total = 0;
  for (const Transport* t : transport_dedup_) total += t->stats().retries;
  return total;
}

std::vector<std::size_t> FederatedAveraging::draw_participants() {
  std::vector<std::size_t> all(clients_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  // Full participation consumes no randomness: the historic RNG stream
  // shape of fraction = 1 runs is part of the checkpoint contract.
  if (sampling_.fraction >= 1.0) return all;

  // Partition out quarantined clients (quarantine-aware sampling): the
  // C-fraction draw is spent on clients whose uploads can reach the
  // aggregate; quarantined clients ride along as probation participants
  // below. With defense off (or awareness disabled) every client is
  // eligible and the shuffle consumes exactly the historic stream.
  std::vector<std::size_t> eligible;
  std::vector<std::size_t> riders;
  if (defense_ && sampling_.quarantine_aware) {
    eligible.reserve(all.size());
    for (const std::size_t i : all)
      (defense_->quarantined(i) ? riders : eligible).push_back(i);
  } else {
    eligible = std::move(all);
  }
  if (eligible.empty()) return riders;  // probation-only round

  const auto ceil_fraction = static_cast<std::size_t>(std::ceil(
      sampling_.fraction * static_cast<double>(eligible.size())));
  const std::size_t count =
      std::min(eligible.size(),
               std::max({std::size_t{1}, sampling_.min_clients,
                         ceil_fraction}));
  participation_rng_.shuffle(eligible);
  eligible.resize(count);
  // Probation riders: quarantined clients participate every round (their
  // uploads feed re-admission streaks, never the aggregate), so quarantine
  // can end even when C is small.
  for (const std::size_t r : riders) eligible.push_back(r);
  std::sort(eligible.begin(), eligible.end());
  return eligible;
}

RoundResult FederatedAveraging::run_round() {
  const std::vector<double>& global = global_model();
  FEDPOWER_EXPECTS(!global.empty());
  RoundResult result;
  // The counter is bumped only after aggregation: a round that throws
  // (transport fault cascade below quorum) leaves it untouched.
  result.round = rounds_completed_ + 1;
  result.participants = draw_participants();
  const std::size_t retries_before = total_transport_retries();
  std::uint64_t base_version = 0;
  if (committer_ != nullptr) {
    committer_->begin_round(result.participants);
    base_version = committer_->version();
  }

  // Broadcast theta_r to every participating client (Algorithm 2 line 3).
  // Each client receives its own transfer, as over a real network; a
  // client whose link faults is dropped for the round but must not abort
  // it (FedAvg with partial participation covers the survivors).
  std::vector<char> lost(clients_.size(), 0);
  // Per-client transport latency this round (downlink now, uplink added
  // below). Transfers are serial in client-index order, so the cumulative-
  // latency delta around one transfer is exactly that client's share even
  // when clients share a link.
  const bool deadline_armed = deadline_s_ > 0.0;
  std::vector<double> link_latency(deadline_armed ? clients_.size() : 0, 0.0);
  const std::vector<std::uint8_t> broadcast = codec_->encode(global);
  for (const std::size_t i : result.participants) {
    const double latency_before =
        deadline_armed ? transport_for(i).cumulative_latency_s() : 0.0;
    try {
      const auto delivered =
          transport_for(i).transfer(Direction::kDownlink, broadcast);
      clients_[i]->receive_global(codec_->decode(delivered));
      result.downlink_bytes += delivered.size();
    } catch (const TransportError&) {
      lost[i] = 1;  // unreachable device
    } catch (const std::invalid_argument&) {
      lost[i] = 1;  // payload damaged in flight, codec rejected it
    }
    if (deadline_armed)
      link_latency[i] =
          transport_for(i).cumulative_latency_s() - latency_before;
  }

  // Local optimization (line 5): every still-reachable participant trains
  // its steps_per_round local steps, in parallel when an executor is set
  // (one client = one task). The barrier at the end of for_each_index is
  // what makes the round synchronous; clients own disjoint state, so the
  // schedule cannot change what they learn and the result matches the
  // serial loop bit for bit.
  std::vector<std::size_t> training;
  training.reserve(result.participants.size());
  for (const std::size_t i : result.participants)
    if (!lost[i]) training.push_back(i);
  util::for_each_index(executor_, training.size(), [&](std::size_t k) {
    clients_[training[k]]->run_local_round();
  });

  // Upload (line 6), serial and in client-index order — transports are not
  // thread-safe, fault-injection streams must see one deterministic
  // transfer sequence, and the defense screens below accumulate history in
  // client order (DESIGN.md §7). Aggregation is synchronous over the
  // survivors, inline or in the committer.
  std::vector<std::vector<double>> locals;
  std::vector<double> weights;
  std::vector<char> straggler(clients_.size(), 0);
  std::vector<char> screened(clients_.size(), 0);
  std::vector<char> defense_rejected(clients_.size(), 0);
  std::vector<char> in_quarantine(clients_.size(), 0);
  if (defense_)
    for (const std::size_t i : result.participants)
      if (defense_->quarantined(i)) in_quarantine[i] = 1;
  std::vector<ScreenObservation> observations;
  observations.reserve(result.participants.size());
  locals.reserve(result.participants.size());
  for (const std::size_t i : training) {
    try {
      const double latency_before =
          deadline_armed ? transport_for(i).cumulative_latency_s() : 0.0;
      auto payload = transport_for(i).transfer(
          Direction::kUplink,
          codec_->encode(clients_[i]->local_parameters()));
      if (deadline_armed) {
        // Deadline demotion: a client whose downlink + uplink latency blew
        // the round budget is a dropout, not a suspect — its upload is
        // discarded before decoding or screening, so no defense
        // observation is recorded and an honest-but-slow client keeps its
        // reputation (DESIGN.md §13). A committer never sees the upload
        // and books the client as a dropout.
        const double round_latency =
            link_latency[i] +
            (transport_for(i).cumulative_latency_s() - latency_before);
        if (round_latency > deadline_s_) {
          straggler[i] = 1;
          lost[i] = 1;
          continue;
        }
      }
      if (committer_ != nullptr) {
        committer_->submit(
            i, base_version, std::move(payload),
            static_cast<double>(clients_[i]->local_sample_count()));
        continue;
      }
      auto local = codec_->decode(payload);
      if (local.size() != global.size()) {
        lost[i] = 1;  // decoded to the wrong shape: treat as corrupt
        continue;
      }
      // Server-side screening: a NaN or infinity anywhere in an upload
      // would poison every mean-style aggregate, so a diverged (or
      // malicious) model is excluded exactly like a transport dropout.
      // Shared with the serve pipeline (screening parity, DESIGN.md §13).
      if (any_non_finite(local)) {
        screened[i] = 1;
        if (defense_) observations.push_back(defense_->non_finite(i));
        continue;
      }
      result.uplink_bytes += payload.size();
      if (defense_) {
        // Screening may clip `local` in place; the verdict only feeds the
        // reputation update after the quorum holds (commit_round below).
        const ScreenObservation obs = defense_->screen(i, local, global);
        observations.push_back(obs);
        const bool clean = obs.verdict == ScreenVerdict::kAccepted ||
                           obs.verdict == ScreenVerdict::kClipped;
        if (!clean) {
          if (!in_quarantine[i]) defense_rejected[i] = 1;
          continue;
        }
        // A quarantined client's clean upload feeds its probation streak
        // but stays out of the aggregate until re-admission.
        if (in_quarantine[i]) continue;
      }
      locals.push_back(std::move(local));
      weights.push_back(
          static_cast<double>(clients_[i]->local_sample_count()));
    } catch (const TransportError&) {
      lost[i] = 1;
    } catch (const std::invalid_argument&) {
      lost[i] = 1;
    }
  }

  if (committer_ != nullptr) {
    // The committer reports dropouts, verdicts and bytes; the driver adds
    // what only it saw — deadline demotions, downlink and retries.
    RoundResult committed = committer_->commit_round(quorum_);
    for (const std::size_t i : result.participants)
      if (straggler[i]) committed.stragglers.push_back(i);
    committed.downlink_bytes = result.downlink_bytes;
    committed.transport_retries = total_transport_retries() - retries_before;
    ++rounds_completed_;
    return committed;
  }

  for (const std::size_t i : result.participants) {
    if (lost[i]) result.dropped.push_back(i);
    if (straggler[i]) result.stragglers.push_back(i);
    if (screened[i]) result.rejected.push_back(i);
    if (defense_rejected[i]) result.screened.push_back(i);
    if (in_quarantine[i]) result.quarantined.push_back(i);
  }
  result.transport_retries = total_transport_retries() - retries_before;

  // An aborted round drops its screening observations along with the round
  // counter: reputations only move on completed rounds. The quorum is
  // checked against this round's aggregation-eligible participants — the
  // drawn clients minus probation riders — never the full fleet: a round
  // that samples fewer clients than the configured quorum only demands
  // that every sampled client survive. (Pre-fix the absolute count was
  // used, so small-C rounds threw QuorumError spuriously with zero
  // faults.) At least one upload must always survive.
  const std::size_t eligible_drawn =
      result.participants.size() - result.quarantined.size();
  const std::size_t required =
      std::max<std::size_t>(1, std::min(quorum_, eligible_drawn));
  if (locals.size() < required) throw QuorumError(locals.size(), required);

  // theta_{r+1} (line 8). The per-mode parameter policy lives in
  // aggregate_with_mode, shared with the serve pipeline's deterministic
  // commit so both paths run the exact same floating-point operations.
  // Large fleets shard the coordinate reduction across the executor
  // (bit-identical to serial; see aggregate.hpp).
  AggregateOutcome outcome;
  global_ = aggregate_with_mode(
      mode_, locals, weights,
      trim_count_override_ ? std::optional<std::size_t>(trim_count_)
                           : std::nullopt,
      executor_, outcome);
  result.trim_count = outcome.trim_count;
  result.trim_clamped = outcome.trim_clamped;

  if (defense_) {
    const DefenseRoundLog log = defense_->commit_round(observations);
    result.readmitted = log.readmitted;
    result.clipped = log.clipped;
  }
  ++rounds_completed_;
  return result;
}

void FederatedAveraging::run(std::size_t rounds) {
  for (std::size_t r = 0; r < rounds; ++r) run_round();
}

namespace {
constexpr ckpt::Tag kFedTag{'F', 'A', 'V', 'G'};
constexpr ckpt::Tag kCommitterFedTag{'S', 'F', 'E', 'D'};
}  // namespace

void FederatedAveraging::save_state(ckpt::Writer& out) const {
  write_tag(out, committer_ != nullptr ? kCommitterFedTag : kFedTag);
  out.u64(clients_.size());
  out.u64(rounds_completed_);
  ckpt::save_rng(out, participation_rng_);
  if (committer_ != nullptr) {
    committer_->save_state(out);
    return;
  }
  out.vec_f64(global_);
  // Appended only when the defense pipeline is armed: clean-run snapshots
  // keep the pre-defense byte format.
  if (defense_) defense_->save_state(out);
}

void FederatedAveraging::restore_state(ckpt::Reader& in) {
  expect_tag(in, committer_ != nullptr ? kCommitterFedTag : kFedTag,
             committer_ != nullptr ? "federation driver with a committer"
                                   : "federated averaging server");
  const std::uint64_t client_count = in.u64();
  if (client_count != clients_.size())
    throw ckpt::StateMismatchError(
        "federation snapshot was taken with " + std::to_string(client_count) +
        " client(s), this federation has " + std::to_string(clients_.size()));
  rounds_completed_ = in.u64();
  ckpt::restore_rng(in, participation_rng_);
  if (committer_ != nullptr)
    committer_->restore_state(in);
  else
    global_ = in.vec_f64();
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
  if (defense_) defense_->restore_state(in);
}

}  // namespace fedpower::fed
