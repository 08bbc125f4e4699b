#include "rl/replay_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace fedpower::rl {
namespace {

std::vector<double> state_of(double x) { return {x, x + 1.0, x + 2.0}; }

TEST(ReplayBuffer, StartsEmpty) {
  ReplayBuffer buffer(10, 3);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.capacity(), 10u);
  EXPECT_EQ(buffer.state_dim(), 3u);
}

TEST(ReplayBuffer, PushAndRetrieve) {
  ReplayBuffer buffer(10, 3);
  buffer.push(state_of(1.0), 4, 0.5);
  ASSERT_EQ(buffer.size(), 1u);
  const Transition t = buffer.at(0);
  EXPECT_EQ(t.state, state_of(1.0));
  EXPECT_EQ(t.action, 4u);
  EXPECT_DOUBLE_EQ(t.reward, 0.5);
}

TEST(ReplayBuffer, KeepsMostRecentAtCapacity) {
  ReplayBuffer buffer(3, 3);
  for (int i = 0; i < 5; ++i)
    buffer.push(state_of(i), static_cast<std::size_t>(i % 3),
                static_cast<double>(i));
  EXPECT_EQ(buffer.size(), 3u);
  // Oldest retained is i=2.
  EXPECT_DOUBLE_EQ(buffer.at(0).reward, 2.0);
  EXPECT_DOUBLE_EQ(buffer.at(1).reward, 3.0);
  EXPECT_DOUBLE_EQ(buffer.at(2).reward, 4.0);
}

TEST(ReplayBuffer, AgeOrderBeforeWraparound) {
  ReplayBuffer buffer(5, 3);
  for (int i = 0; i < 3; ++i)
    buffer.push(state_of(i), 0, static_cast<double>(i));
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(buffer.at(i).reward, static_cast<double>(i));
}

TEST(ReplayBuffer, SampleWithoutReplacement) {
  ReplayBuffer buffer(20, 3);
  for (int i = 0; i < 20; ++i)
    buffer.push(state_of(i), 0, static_cast<double>(i));
  util::Rng rng(1);
  const auto batch = buffer.sample(10, rng);
  ASSERT_EQ(batch.size(), 10u);
  std::set<double> rewards;
  for (const auto& t : batch) rewards.insert(t.reward);
  EXPECT_EQ(rewards.size(), 10u);  // all distinct
}

TEST(ReplayBuffer, SampleClampsToSize) {
  ReplayBuffer buffer(100, 3);
  buffer.push(state_of(1.0), 0, 1.0);
  buffer.push(state_of(2.0), 1, 2.0);
  util::Rng rng(2);
  EXPECT_EQ(buffer.sample(128, rng).size(), 2u);
}

TEST(ReplayBuffer, SampleFromEmptyIsEmpty) {
  ReplayBuffer buffer(10, 3);
  util::Rng rng(3);
  EXPECT_TRUE(buffer.sample(5, rng).empty());
}

TEST(ReplayBuffer, SamplingIsUniformish) {
  ReplayBuffer buffer(10, 3);
  for (int i = 0; i < 10; ++i)
    buffer.push(state_of(i), 0, static_cast<double>(i));
  util::Rng rng(4);
  std::vector<int> counts(10, 0);
  for (int trial = 0; trial < 5000; ++trial) {
    const auto batch = buffer.sample(3, rng);
    for (const auto& t : batch)
      ++counts[static_cast<std::size_t>(t.reward)];
  }
  // Each element expected 1500 times; allow generous tolerance.
  for (const int c : counts) EXPECT_NEAR(c, 1500, 200);
}

TEST(ReplayBuffer, Float32QuantizationIsLossyButClose) {
  ReplayBuffer buffer(4, 1);
  const double value = 0.1234567890123;
  buffer.push(std::vector<double>{value}, 0, value);
  const Transition t = buffer.at(0);
  EXPECT_NE(t.state[0], value);               // float32 storage is lossy
  EXPECT_NEAR(t.state[0], value, 1e-7);       // but close
  EXPECT_NEAR(t.reward, value, 1e-7);
}

TEST(ReplayBuffer, StorageBytesMatchesPaperScale) {
  // Paper §IV-C: the replay buffer requires ~100 kB of storage.
  // 4000 entries * (5 floats + action byte + reward float) = 100 kB.
  ReplayBuffer buffer(4000, 5);
  EXPECT_EQ(buffer.storage_bytes(), 4000u * 25u);
  EXPECT_NEAR(static_cast<double>(buffer.storage_bytes()) / 1024.0, 97.7,
              1.0);
  // The figure is the full ring's, however far the storage has grown.
  for (std::size_t i = 0; i < 10; ++i)
    buffer.push(std::vector<double>(5, 0.5), 3, 1.0);
  EXPECT_EQ(buffer.storage_bytes(), 4000u * 25u);
}

TEST(ReplayBuffer, ClearEmptiesButKeepsCapacity) {
  ReplayBuffer buffer(10, 2);
  buffer.push(std::vector<double>{1.0, 2.0}, 0, 1.0);
  buffer.clear();
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.capacity(), 10u);
  buffer.push(std::vector<double>{3.0, 4.0}, 1, 2.0);
  EXPECT_DOUBLE_EQ(buffer.at(0).reward, 2.0);
}

// --- grow-on-push storage ---------------------------------------------------
//
// The ring's storage grows with the pushes instead of being zero-filled up
// front. These pin that nothing observable moved: the records below hash
// at() and sample_into() output of a wrapped ring, and of the same ring
// after clear() and more pushes, against the value a fully preallocated
// ring produced.

std::vector<double> script_state(std::size_t i) {
  const double x = static_cast<double>(i);
  return {0.5 * x - 1.0, 0.01 * x * x, -(x + 0.25)};
}
std::size_t script_action(std::size_t i) { return (3 * i) % 7; }
double script_reward(std::size_t i) {
  return 0.1 * static_cast<double>(i) - 0.35;
}
void push_script(ReplayBuffer& ring, std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i)
    ring.push(script_state(i), script_action(i), script_reward(i));
}

/// Appends every retained transition, then three batches of draws.
void record_ring(ReplayBuffer& ring, util::Rng& rng, ckpt::Writer& out) {
  out.u64(ring.size());
  for (std::size_t i = 0; i < ring.size(); ++i) {
    const Transition t = ring.at(i);
    out.vec_f64(t.state);
    out.u64(t.action);
    out.f64(t.reward);
  }
  nn::Matrix states;
  std::vector<std::size_t> actions;
  std::vector<double> rewards;
  for (const std::size_t n : {4u, 7u, 10u}) {
    out.u64(ring.sample_into(n, rng, states, actions, rewards));
    out.vec_f64(states.data());
    for (const std::size_t a : actions) out.u64(a);
    out.vec_f64(rewards);
  }
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(ReplayBuffer, WrappedRingMatchesThePreallocatedGolden) {
  ReplayBuffer ring(7, 3);
  push_script(ring, 0, 20);  // wraps twice; the oldest entry is push 13
  ASSERT_EQ(ring.size(), 7u);
  for (std::size_t i = 0; i < ring.size(); ++i)
    EXPECT_EQ(ring.at(i).action, script_action(13 + i)) << i;
  ckpt::Writer record;
  util::Rng rng(31);
  record_ring(ring, rng, record);
  // clear() keeps the grown storage; the pushes after it overwrite from
  // slot 0, as they did in the preallocated ring.
  ring.clear();
  push_script(ring, 20, 24);
  ASSERT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.at(0).action, script_action(20));
  record_ring(ring, rng, record);
  EXPECT_EQ(record.size(), 1888u);
  EXPECT_EQ(fnv1a(record.data()), 0x471ab7418739b4edULL);
}

TEST(ReplayBuffer, ClearedRingRefillsAndWrapsLikeAFreshOne) {
  ReplayBuffer cleared(5, 3);
  push_script(cleared, 0, 3);
  cleared.clear();
  ReplayBuffer fresh(5, 3);
  for (std::size_t i = 0; i < 12; ++i) {  // fills past the old storage
    push_script(cleared, i, i + 1);
    push_script(fresh, i, i + 1);
    ASSERT_EQ(cleared.size(), fresh.size());
    for (std::size_t k = 0; k < fresh.size(); ++k)
      EXPECT_EQ(cleared.at(k).state, fresh.at(k).state) << i << ":" << k;
    ckpt::Writer a, b;
    cleared.save_state(a);
    fresh.save_state(b);
    EXPECT_EQ(a.data(), b.data()) << i;
  }
}

TEST(ReplayBufferDeathTest, RejectsWrongStateDim) {
  ReplayBuffer buffer(10, 3);
  EXPECT_DEATH(buffer.push(std::vector<double>{1.0}, 0, 0.0), "precondition");
}

TEST(ReplayBufferDeathTest, RejectsOutOfRangeAt) {
  ReplayBuffer buffer(10, 3);
  buffer.push(state_of(0.0), 0, 0.0);
  EXPECT_DEATH(buffer.at(1), "precondition");
}

TEST(ReplayBufferDeathTest, RejectsZeroCapacity) {
  EXPECT_DEATH(ReplayBuffer(0, 3), "precondition");
}

}  // namespace
}  // namespace fedpower::rl
