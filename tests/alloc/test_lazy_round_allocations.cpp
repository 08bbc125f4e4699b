// Allocation gate for a steady-state lazy-fleet round (DESIGN.md §11): a
// participant is hydrated into the objects of a device dehydrated before
// it, receives the broadcast, trains and uploads, and is dehydrated again
// with at most two heap allocations — its cold blob and, when its
// processor starts an application, the profile copy. Building a device per
// hydration instead cost about 41. The count is the growth of a round's
// allocations with its participants, so what a round allocates once (the
// draw, the broadcast, the sweep's scratch) does not enter it.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc/alloc_counter.hpp"
#include "core/controller.hpp"
#include "fed/defense.hpp"
#include "fed/federation.hpp"
#include "fed/transport.hpp"
#include "runtime/fleet_runtime.hpp"
#include "sim/splash2.hpp"

namespace fedpower::runtime {
namespace {

using alloc_test::allocation_count;
using alloc_test::set_counting;

struct CountedRound {
  std::uint64_t allocations = 0;
  std::size_t participants = 0;
};

/// A lazy fleet of 32 Table I devices per participant, drawn at C = 1/32,
/// each training 4 local steps with the defense on, driven as
/// core::run_federated drives it: the previous round's participants go
/// cold as the next round starts. The warm-up rounds fill the spare list
/// and grow every buffer; the next round is counted from its dehydration
/// sweep to its commit.
CountedRound count_lazy_round(std::size_t participants,
                              std::size_t warmup_rounds = 8) {
  const std::size_t devices = 32 * participants;
  const std::vector<sim::AppProfile> suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps(devices);
  for (std::size_t d = 0; d < devices; ++d)
    apps[d].push_back(suite[d % suite.size()]);
  core::ControllerConfig controller;
  controller.steps_per_round = 4;
  FleetRuntime fleet({controller}, sim::ProcessorConfig{}, apps, 11,
                     FleetOptions{1, /*lazy=*/true});
  fed::InProcessTransport transport;
  fed::FederatedAveraging server(fleet.clients(), &transport);
  fed::DefenseConfig defense;
  defense.enabled = true;
  server.enable_defense(defense);
  fed::SamplingConfig sampling;
  sampling.fraction = 1.0 / 32.0;
  sampling.seed = 5;
  server.set_sampling(sampling);
  server.initialize(fleet.controller(0).local_parameters());
  for (std::size_t r = 0; r < warmup_rounds; ++r) {
    fleet.dehydrate_inactive({});
    server.run_round();
  }

  const std::uint64_t before = allocation_count();
  set_counting(true);
  fleet.dehydrate_inactive({});
  const fed::RoundResult result = server.run_round();
  set_counting(false);
  EXPECT_EQ(result.effective_clients(), result.participants.size());
  return {allocation_count() - before, result.participants.size()};
}

TEST(LazyRoundAllocations, AtMostTwoPerParticipant) {
  const CountedRound small = count_lazy_round(8);
  const CountedRound large = count_lazy_round(64);
  EXPECT_GT(small.allocations, 0u);  // the counter covered the round
  ASSERT_GT(large.participants, small.participants);
  const double per_participant =
      (static_cast<double>(large.allocations) -
       static_cast<double>(small.allocations)) /
      static_cast<double>(large.participants - small.participants);
  EXPECT_LE(per_participant, 2.0)
      << small.allocations << " allocations at " << small.participants
      << " participants, " << large.allocations << " at "
      << large.participants;
}

}  // namespace
}  // namespace fedpower::runtime
