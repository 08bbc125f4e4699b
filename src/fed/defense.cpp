#include "fed/defense.hpp"

#include <algorithm>
#include <cmath>

#include "ckpt/fields.hpp"
#include "util/assert.hpp"

namespace fedpower::fed {

bool any_non_finite(std::span<const double> values) {
  for (const double v : values)
    if (!std::isfinite(v)) return true;
  return false;
}

namespace {

/// Median of the scratch window via nth_element (even sizes average the
/// two middle elements). Deterministic and O(window); the scratch is taken
/// by value because nth_element reorders it.
double robust_median(std::vector<double> scratch) {
  FEDPOWER_EXPECTS(!scratch.empty());
  const std::size_t mid = scratch.size() / 2;
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(mid),
                   scratch.end());
  if (scratch.size() % 2 == 1) return scratch[mid];
  const double upper = scratch[mid];
  const double lower = *std::max_element(
      scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

/// L2 norm of the element-wise difference a - b, accumulated in coordinate
/// order (the documented model-order FP contract, DESIGN.md §8 L3).
double update_norm(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

/// Cosine distance 1 - cos(a, b) in [0, 2]; 0 when either vector is ~zero
/// (no direction to compare — the caller's warm-up guard covers that case).
double cosine_distance(std::span<const double> a, std::span<const double> b) {
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  if (na <= 0.0 || nb <= 0.0) return 0.0;
  return 1.0 - dot / (std::sqrt(na) * std::sqrt(nb));
}

}  // namespace

DefensePipeline::DefensePipeline(DefenseConfig config,
                                 std::size_t client_count)
    : config_(config) {
  FEDPOWER_EXPECTS(client_count >= 1);
  FEDPOWER_EXPECTS(config_.norm_clip_multiplier > 0.0);
  FEDPOWER_EXPECTS(config_.norm_screen_multiplier >=
                   config_.norm_clip_multiplier);
  FEDPOWER_EXPECTS(config_.cosine_max_distance >= 0.0 &&
                   config_.cosine_max_distance <= 2.0);
  FEDPOWER_EXPECTS(config_.norm_history >= 1);
  FEDPOWER_EXPECTS(config_.fail_penalty >= 0.0);
  FEDPOWER_EXPECTS(config_.pass_credit >= 0.0);
  FEDPOWER_EXPECTS(config_.probation_rounds >= 1);
  clients_.assign(client_count, ClientState{config_.initial_reputation,
                                            false, 0, 0, 0});
  norm_history_.reserve(config_.norm_history);
}

bool DefensePipeline::quarantined(std::size_t client) const {
  FEDPOWER_EXPECTS(client < clients_.size());
  return clients_[client].quarantined;
}

double DefensePipeline::reputation(std::size_t client) const {
  FEDPOWER_EXPECTS(client < clients_.size());
  return clients_[client].reputation;
}

bool DefensePipeline::norm_screen_armed() const noexcept {
  return rounds_ >= config_.warmup_rounds &&
         norm_history_.size() >= config_.norm_min_samples;
}

ScreenObservation DefensePipeline::screen(
    std::size_t client, std::vector<double>& upload,
    std::span<const double> previous_global) const {
  FEDPOWER_EXPECTS(client < clients_.size());
  FEDPOWER_EXPECTS(upload.size() == previous_global.size());
  ScreenObservation obs;
  obs.client = client;
  obs.accepted_norm = update_norm(upload, previous_global);

  // Cosine screen: a model pointing away from the broadcast it was trained
  // from (sign flip, heavy rotation) is hostile regardless of its norm.
  // Armed only after warm-up — the very first global models are
  // near-random, so direction carries no signal yet.
  if (rounds_ >= config_.warmup_rounds &&
      cosine_distance(upload, previous_global) >
          config_.cosine_max_distance) {
    obs.verdict = ScreenVerdict::kCosineReject;
    return obs;
  }

  if (!norm_screen_armed()) {
    obs.verdict = ScreenVerdict::kAccepted;
    return obs;
  }

  const double median = norm_median_;
  if (median <= 0.0) {
    obs.verdict = ScreenVerdict::kAccepted;
    return obs;
  }
  const double norm = obs.accepted_norm;
  if (norm > config_.norm_screen_multiplier * median) {
    obs.verdict = ScreenVerdict::kNormReject;
    return obs;
  }
  if (norm > config_.norm_clip_multiplier * median) {
    // Clip the update back onto the norm envelope: the direction survives,
    // the magnitude is bounded by what honest clients recently produced.
    const double target = config_.norm_clip_multiplier * median;
    const double scale = target / norm;
    for (std::size_t i = 0; i < upload.size(); ++i)
      upload[i] = previous_global[i] +
                  (upload[i] - previous_global[i]) * scale;
    obs.verdict = ScreenVerdict::kClipped;
    obs.accepted_norm = target;
    return obs;
  }
  obs.verdict = ScreenVerdict::kAccepted;
  return obs;
}

ScreenObservation DefensePipeline::non_finite(std::size_t client) const {
  FEDPOWER_EXPECTS(client < clients_.size());
  ScreenObservation obs;
  obs.client = client;
  obs.verdict = ScreenVerdict::kNonFinite;
  obs.accepted_norm = 0.0;
  return obs;
}

DefenseRoundLog DefensePipeline::commit_round(
    const std::vector<ScreenObservation>& observations) {
  DefenseRoundLog log;
  for (const ScreenObservation& obs : observations) {
    FEDPOWER_EXPECTS(obs.client < clients_.size());
    ClientState& state = clients_[obs.client];
    const bool clean = obs.verdict == ScreenVerdict::kAccepted ||
                       obs.verdict == ScreenVerdict::kClipped;
    if (state.quarantined) {
      // Probation: the upload was screened but never aggregated. Clean
      // streaks of probation_rounds earn re-admission starting next round.
      if (clean) {
        ++state.probation_streak;
        if (state.probation_streak >=
            static_cast<std::uint64_t>(config_.probation_rounds)) {
          state.quarantined = false;
          --quarantined_count_;
          state.probation_streak = 0;
          state.reputation = config_.readmit_reputation;
          ++state.readmissions;
          log.readmitted.push_back(obs.client);
        }
      } else {
        state.probation_streak = 0;
        ++state.screened_total;
      }
      continue;
    }
    if (clean) {
      state.reputation =
          std::min(1.0, state.reputation + config_.pass_credit);
      if (obs.verdict == ScreenVerdict::kClipped) ++log.clipped;
      // Record the accepted norm in the ring (clipped entries record the
      // envelope they were clipped to).
      if (norm_history_.size() < config_.norm_history) {
        norm_history_.push_back(obs.accepted_norm);
      } else {
        norm_history_[norm_cursor_] = obs.accepted_norm;
        norm_cursor_ = (norm_cursor_ + 1) % config_.norm_history;
      }
    } else {
      state.reputation -= config_.fail_penalty;
      ++state.screened_total;
      if (state.reputation < config_.quarantine_threshold) {
        state.quarantined = true;
        ++quarantined_count_;
        state.probation_streak = 0;
        log.newly_quarantined.push_back(obs.client);
      }
    }
  }
  ++rounds_;
  // Copy + nth_element over a bounded ring: deterministic and O(window).
  // Only an armed norm screen reads it, so an unarmed round skips it.
  norm_median_ = norm_screen_armed() && !norm_history_.empty()
                     ? robust_median(norm_history_)
                     : 0.0;
  return log;
}

std::size_t required_survivors(std::size_t quorum, std::size_t participants,
                               std::size_t quarantined) noexcept {
  return std::max<std::size_t>(1,
                               std::min(quorum, participants - quarantined));
}

void DefenseStage::begin_round(std::span<const std::size_t> participants) {
  quarantined_.clear();
  observations_.clear();
  for (const std::size_t i : participants)
    if (pipeline_.quarantined(i)) quarantined_.push_back(i);
}

Admission DefenseStage::admit(const ScreenObservation& observation) {
  observations_.push_back(observation);
  if (pipeline_.quarantined(observation.client)) return Admission::kProbation;
  const bool clean = observation.verdict == ScreenVerdict::kAccepted ||
                     observation.verdict == ScreenVerdict::kClipped;
  return clean ? Admission::kAggregate : Admission::kScreened;
}

DefenseRoundLog DefenseStage::commit() {
  DefenseRoundLog log = pipeline_.commit_round(observations_);
  observations_.clear();
  return log;
}

namespace {
constexpr ckpt::Tag kDefenseTag{'D', 'F', 'N', 'S'};
}  // namespace

template <class Self, class Io>
void DefensePipeline::fields(Self& s, Io& io) {
  io.tag(kDefenseTag, "defense pipeline");
  io.expect_count(s.clients_.size(), "client(s)");
  io.u64(s.rounds_);
  for (auto& client : s.clients_) {
    io.f64(client.reputation);
    io.u8(client.quarantined);
    io.u64(client.probation_streak, client.screened_total, client.readmissions);
  }
  io.vec(s.norm_history_);
  io.check(s.norm_history_.size() <= s.config_.norm_history,
           "norm history exceeds this config's window");
  io.u64(s.norm_cursor_);
  io.check(s.norm_cursor_ < std::max<std::size_t>(1, s.config_.norm_history),
           "norm-history cursor is out of range");
}

void DefensePipeline::save_state(ckpt::Writer& out) const {
  ckpt::Save io(out);
  fields(*this, io);
}

void DefensePipeline::restore_state(ckpt::Reader& in) {
  ckpt::Load io(in);
  fields(*this, io);
  quarantined_count_ = static_cast<std::size_t>(
      std::count_if(clients_.begin(), clients_.end(),
                    [](const ClientState& c) { return c.quarantined; }));
  norm_median_ = norm_screen_armed() && !norm_history_.empty()
                     ? robust_median(norm_history_)
                     : 0.0;
}

}  // namespace fedpower::fed
