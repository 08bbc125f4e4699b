// Allocation gate for a cleared replay ring: clear() keeps the storage of
// every column, so refilling the ring up to the slots it held before, and
// drawing a batch from it into warm outputs, allocates nothing, with or
// without successor states.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "alloc/alloc_counter.hpp"
#include "nn/matrix.hpp"
#include "rl/replay_buffer.hpp"
#include "util/rng.hpp"

namespace fedpower::rl {
namespace {

using alloc_test::allocation_count;
using alloc_test::set_counting;

TEST(ReplayAllocations, ClearedRingRefillsWithoutAllocating) {
  for (const bool successors : {false, true}) {
    SCOPED_TRACE(successors);
    ReplayBuffer ring(64, 5, successors);
    const std::vector<double> state(5, 0.25);
    const std::vector<double> next(5, 0.5);
    const std::span<const double> successor =
        successors ? std::span<const double>(next) : std::span<const double>();
    util::Rng rng(3);
    nn::Matrix states, next_states;
    std::vector<std::size_t> actions;
    std::vector<double> rewards;
    const auto fill_and_draw = [&] {
      for (std::size_t i = 0; i < 40; ++i)
        ring.push(state, i % 7, 0.1 * static_cast<double>(i), successor);
      return ring.sample_into(32, rng, states, actions, rewards,
                              successors ? &next_states : nullptr);
    };
    ASSERT_EQ(fill_and_draw(), 32u);  // grows the storage and the outputs
    ring.clear();

    set_counting(true);
    const std::uint64_t before = allocation_count();
    const std::size_t drawn = fill_and_draw();
    const std::uint64_t allocated = allocation_count() - before;
    set_counting(false);
    EXPECT_EQ(drawn, 32u);
    EXPECT_EQ(ring.size(), 40u);
    EXPECT_EQ(allocated, 0u);
  }
}

}  // namespace
}  // namespace fedpower::rl
