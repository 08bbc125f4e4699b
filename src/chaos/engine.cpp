#include "chaos/engine.hpp"

#include <algorithm>

#include "ckpt/fields.hpp"
#include "util/assert.hpp"

namespace fedpower::chaos {

namespace {
constexpr ckpt::Tag kChaosTag{'C', 'H', 'A', 'O'};
}  // namespace

ChaosEngine::ChaosEngine(const ChaosConfig& config, std::size_t client_count)
    : config_(config), rng_(config.seed), offline_(client_count, 0) {
  FEDPOWER_EXPECTS(client_count >= 1);
  FEDPOWER_EXPECTS(config_.leave_probability >= 0.0 &&
                   config_.leave_probability <= 1.0);
  FEDPOWER_EXPECTS(config_.rejoin_probability >= 0.0 &&
                   config_.rejoin_probability <= 1.0);
  FEDPOWER_EXPECTS(config_.shock_probability >= 0.0 &&
                   config_.shock_probability <= 1.0);
}

RoundPlan ChaosEngine::begin_round() {
  RoundPlan plan;
  // Availability churn: one draw per client, in index order, whether or
  // not the outcome flips anything. The fixed draw count is load-bearing:
  // it keeps the stream position a pure function of (seed, round), so a
  // resumed run and a clean run stay on the same schedule.
  if (config_.leave_probability > 0.0) {
    for (std::size_t i = 0; i < offline_.size(); ++i) {
      const double u = rng_.uniform();
      if (offline_[i] != 0) {
        if (u < config_.rejoin_probability) {
          offline_[i] = 0;
          plan.came_online.push_back(i);
          ++stats_.rejoins;
        }
      } else if (u < config_.leave_probability) {
        offline_[i] = 1;
        plan.went_offline.push_back(i);
        ++stats_.departures;
      }
    }
  }
  // Workload shock: at most one device per round abandons its in-flight
  // application (the driver calls Processor::reset_app on it).
  if (config_.shock_probability > 0.0 && rng_.bernoulli(config_.shock_probability)) {
    plan.shock_device = static_cast<std::size_t>(
        rng_.uniform_index(static_cast<std::uint64_t>(offline_.size())));
    ++stats_.shocks;
  }
  plan.offline = offline_;
  ++stats_.rounds;
  stats_.max_offline =
      std::max<std::uint64_t>(stats_.max_offline, offline_count());
  return plan;
}

bool ChaosEngine::offline(std::size_t client) const {
  FEDPOWER_EXPECTS(client < offline_.size());
  return offline_[client] != 0;
}

std::size_t ChaosEngine::offline_count() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(offline_.begin(), offline_.end(),
                    [](char f) { return f != 0; }));
}

template <class Self, class Io>
void ChaosEngine::fields(Self& s, Io& io) {
  io.tag(kChaosTag, "chaos engine");
  io.rng(s.rng_);
  io.expect_count(s.offline_.size(), "client(s)");
  for (auto& offline : s.offline_) io.u8(offline);  // 0 or 1
  auto& st = s.stats_;
  io.u64(st.rounds, st.departures, st.rejoins, st.shocks, st.max_offline);
}

FEDPOWER_CKPT_FIELDS(ChaosEngine)

}  // namespace fedpower::chaos
