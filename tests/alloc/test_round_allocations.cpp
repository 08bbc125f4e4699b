// Allocation gate for the synchronous round (DESIGN.md §12): in a
// steady-state round with the float32 codec, no participant costs a heap
// allocation on its downlink or its uplink, so a round's allocation count
// does not grow with the participant count. That holds for plain clients
// and behind the DP and personalisation decorators. Under the unweighted
// mean that holds from the first round on: the committer folds each upload
// into one running sum instead of keeping a row per participant. This
// binary replaces the global operator new with a counter that is switched
// on only around the measured round (alloc_counter.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "alloc/alloc_counter.hpp"
#include "fed/dp.hpp"
#include "fed/federation.hpp"
#include "fed/personalize.hpp"

namespace fedpower::fed {
namespace {

using alloc_test::allocation_count;
using alloc_test::set_counting;

/// Trains by adding a small client-specific delta and hands its model over
/// through copy_local_parameters_to, so it allocates nothing once its
/// buffers have their size. The deltas keep every upload inside the
/// defense screens' norm and cosine envelopes.
class AllocationFreeClient final : public FederatedClient {
 public:
  explicit AllocationFreeClient(double delta) : delta_(delta) {}

  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void copy_local_parameters_to(std::vector<double>& out) const override {
    out.assign(params_.begin(), params_.end());
  }
  void run_local_round() override {
    for (std::size_t j = 0; j < params_.size(); ++j)
      params_[j] += delta_ * static_cast<double>(1 + j % 3);
  }

 private:
  double delta_;
  std::vector<double> params_;
};

/// In-process delivery that records the allocation count as each transfer
/// starts, so the allocations between two consecutive transfers in one
/// direction are exactly one participant's share.
class ProbeTransport final : public Transport {
 public:
  explicit ProbeTransport(std::size_t capacity) {
    downlink_marks_.reserve(capacity);
    uplink_marks_.reserve(capacity);
  }

  std::vector<std::uint8_t> transfer(
      Direction direction, std::vector<std::uint8_t> payload) override {
    (direction == Direction::kUplink ? uplink_marks_ : downlink_marks_)
        .push_back(allocation_count());
    return inner_.transfer(direction, std::move(payload));
  }
  const TrafficStats& stats() const noexcept override {
    return inner_.stats();
  }

  void clear_marks() {
    downlink_marks_.clear();
    uplink_marks_.clear();
  }
  const std::vector<std::uint64_t>& downlink_marks() const {
    return downlink_marks_;
  }
  const std::vector<std::uint64_t>& uplink_marks() const {
    return uplink_marks_;
  }

 private:
  InProcessTransport inner_;
  std::vector<std::uint64_t> downlink_marks_;
  std::vector<std::uint64_t> uplink_marks_;
};

/// Largest allocation count between two consecutive transfer starts.
std::uint64_t max_per_transfer(const std::vector<std::uint64_t>& marks) {
  std::uint64_t worst = 0;
  for (std::size_t k = 1; k < marks.size(); ++k)
    worst = std::max(worst, marks[k] - marks[k - 1]);
  return worst;
}

struct RoundAllocations {
  std::uint64_t per_round = 0;
  std::uint64_t per_downlink = 0;
  std::uint64_t per_uplink = 0;
};

/// The decorator, if any, that each participant's client is wrapped in.
enum class Wrap { kNone, kDp, kPersonalized };

constexpr std::size_t kParams = 687;  // the paper's policy network

/// Runs warm-up rounds (by default past the defense warm-up, so every
/// screen is armed), then counts the allocations of the next round. The
/// clients already hold a model, as a device does, so only the round's
/// own allocations are counted, even in a first round.
RoundAllocations measure_round(std::size_t participants, bool defense,
                               Wrap wrap = Wrap::kNone,
                               std::size_t warmup_rounds = 6) {
  std::vector<double> global(kParams);
  for (std::size_t j = 0; j < kParams; ++j)
    global[j] = 0.5 + 0.01 * static_cast<double>(j % 7);
  std::vector<AllocationFreeClient> clients;
  clients.reserve(participants);
  std::vector<DpClient> dp_clients;
  dp_clients.reserve(participants);
  std::vector<PersonalizedClient> personalized;
  personalized.reserve(participants);
  std::vector<FederatedClient*> pointers;
  for (std::size_t c = 0; c < participants; ++c) {
    clients.emplace_back(1e-3 * (1.0 + 0.05 * static_cast<double>(c % 4)));
    clients.back().receive_global(global);
    FederatedClient* client = &clients.back();
    if (wrap == Wrap::kDp) {
      DpConfig config;  // clipping and noise both armed
      config.clip_norm = 0.02;
      config.noise_multiplier = 0.1;
      config.seed = c;
      dp_clients.emplace_back(client, config);
      client = &dp_clients.back();
    } else if (wrap == Wrap::kPersonalized) {
      // The private head is merged from the model the device holds.
      personalized.emplace_back(client, shared_body_mask(kParams, 99));
      client = &personalized.back();
    }
    pointers.push_back(client);
  }
  ProbeTransport transport(participants);
  FederatedAveraging server(pointers, &transport);
  DefenseConfig config;
  config.enabled = defense;
  server.enable_defense(config);
  server.initialize(global);
  for (std::size_t r = 0; r < warmup_rounds; ++r) server.run_round();

  transport.clear_marks();
  const std::uint64_t before = allocation_count();
  set_counting(true);
  const RoundResult result = server.run_round();
  set_counting(false);
  EXPECT_EQ(result.effective_clients(), participants);
  EXPECT_EQ(transport.downlink_marks().size(), participants);
  EXPECT_EQ(transport.uplink_marks().size(), participants);
  if (defense) {
    EXPECT_TRUE(result.screened.empty());
    EXPECT_EQ(server.defense()->rounds_committed(), warmup_rounds + 1);
  }
  return {allocation_count() - before,
          max_per_transfer(transport.downlink_marks()),
          max_per_transfer(transport.uplink_marks())};
}

void expect_flat_in_participants(bool defense, Wrap wrap = Wrap::kNone) {
  const RoundAllocations small = measure_round(8, defense, wrap);
  const RoundAllocations large = measure_round(64, defense, wrap);
  EXPECT_EQ(small.per_downlink, 0u);
  EXPECT_EQ(small.per_uplink, 0u);
  EXPECT_EQ(large.per_downlink, 0u);
  EXPECT_EQ(large.per_uplink, 0u);
  EXPECT_GT(small.per_round, 0u);  // the counter covered the round
  EXPECT_EQ(large.per_round, small.per_round)
      << "a round's allocations grew with its participants";
}

TEST(RoundAllocations, NoneScaleWithParticipantsWithoutDefense) {
  expect_flat_in_participants(false);
}

TEST(RoundAllocations, NoneScaleWithParticipantsWithDefense) {
  expect_flat_in_participants(true);
}

TEST(RoundAllocations, NoneScaleWithParticipantsInADpFleet) {
  expect_flat_in_participants(false, Wrap::kDp);
}

TEST(RoundAllocations, NoneScaleWithParticipantsInAPersonalizedFleet) {
  expect_flat_in_participants(false, Wrap::kPersonalized);
}

TEST(RoundAllocations, FirstMeanRoundDoesNotScaleWithParticipants) {
  // No warm-up: the mean's committer sizes its one decode row and its
  // running sum in this round, once each. A committer that kept a decoded
  // row per accepted upload would allocate once more per participant.
  const RoundAllocations small = measure_round(8, false, Wrap::kNone, 0);
  const RoundAllocations large = measure_round(64, false, Wrap::kNone, 0);
  EXPECT_GT(small.per_round, 0u);
  EXPECT_EQ(large.per_round, small.per_round)
      << "a first round's allocations grew with its participants";
}

TEST(RoundAllocations, CounterSeesAllocations) {
  // Guards the gate itself: a counter that never counts would pass it.
  const std::uint64_t before = allocation_count();
  set_counting(true);
  auto* probe = new std::vector<double>(16);
  set_counting(false);
  delete probe;
  EXPECT_EQ(allocation_count() - before, 2u);
}

}  // namespace
}  // namespace fedpower::fed
