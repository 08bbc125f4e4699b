#include "rl/replay_buffer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <span>
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

std::vector<std::uint8_t> saved(const ReplayBuffer& ring) {
  ckpt::Writer out;
  ring.save_state(out);
  return out.take();
}

TEST(ReplayBuffer, ClearEmptiesButKeepsCapacity) {
  for (const bool successors : {false, true}) {
    SCOPED_TRACE(successors);
    const auto next = [&](double x) {
      return successors ? std::vector<double>{x, x} : std::vector<double>{};
    };
    ReplayBuffer buffer(10, 2, successors);
    buffer.push(std::vector<double>{1.0, 2.0}, 0, 1.0, next(5.0));
    buffer.clear();
    EXPECT_TRUE(buffer.empty());
    EXPECT_EQ(buffer.capacity(), 10u);
    EXPECT_EQ(saved(buffer), saved(ReplayBuffer(10, 2, successors)));
    buffer.push(std::vector<double>{3.0, 4.0}, 1, 2.0, next(6.0));
    EXPECT_DOUBLE_EQ(buffer.at(0).reward, 2.0);
    EXPECT_EQ(buffer.at(0).next_state, next(6.0));
  }
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
/// A ring with successors stores the next push's state as each successor.
void push_script(ReplayBuffer& ring, std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    const auto next = ring.has_successors() ? script_state(i + 1)
                                            : std::vector<double>{};
    ring.push(script_state(i), script_action(i), script_reward(i), next);
  }
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
  for (const bool successors : {false, true}) {
    SCOPED_TRACE(successors);
    ReplayBuffer cleared(5, 3, successors);
    push_script(cleared, 0, 3);
    cleared.clear();
    ReplayBuffer fresh(5, 3, successors);
    for (std::size_t i = 0; i < 12; ++i) {  // fills past the old storage
      push_script(cleared, i, i + 1);
      push_script(fresh, i, i + 1);
      ASSERT_EQ(cleared.size(), fresh.size());
      for (std::size_t k = 0; k < fresh.size(); ++k) {
        EXPECT_EQ(cleared.at(k).state, fresh.at(k).state) << i << ":" << k;
        EXPECT_EQ(cleared.at(k).next_state, fresh.at(k).next_state)
            << i << ":" << k;
      }
      EXPECT_EQ(saved(cleared), saved(fresh)) << i;
    }
  }
}

TEST(ReplayBuffer, ReleasedRingRefillsSamplesAndWrapsLikeAFreshOne) {
  for (const bool successors : {false, true}) {
    SCOPED_TRACE(successors);
    ReplayBuffer released(5, 3, successors);
    push_script(released, 0, 7);
    util::Rng warm(1);
    (void)released.sample(4, warm);  // grows the sampler too
    nn::Matrix states, next_states;
    std::vector<std::size_t> actions;
    std::vector<double> rewards;
    (void)released.sample_into(4, warm, states, actions, rewards,
                               successors ? &next_states : nullptr);
    released.release();
    EXPECT_TRUE(released.empty());
    ReplayBuffer fresh(5, 3, successors);
    util::Rng rng_released(9);
    util::Rng rng_fresh(9);
    for (std::size_t i = 0; i < 12; ++i) {
      push_script(released, i, i + 1);
      push_script(fresh, i, i + 1);
      EXPECT_EQ(saved(released), saved(fresh)) << i;
      const auto a = released.sample(3, rng_released);
      const auto b = fresh.sample(3, rng_fresh);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t k = 0; k < a.size(); ++k) {
        EXPECT_EQ(a[k].state, b[k].state) << i << ":" << k;
        EXPECT_EQ(a[k].action, b[k].action) << i << ":" << k;
      }
    }
  }
}

// --- one ring for both agents ------------------------------------------------
//
// The bandit ring and the successor ring were two classes before they were
// merged. These digests were recorded from the two classes: 64 seeded
// cases of random geometry, kind and push/clear/draw script, each pinning
// the bytes of the final snapshot and every batch drawn along the way.

struct RingDigest {
  std::uint64_t snapshot;
  std::uint64_t draws;
};

RingDigest run_ring_case(std::size_t c) {
  util::Rng script(0x5eed00 + c);
  const std::size_t capacity = 1 + script.uniform_index(12);
  const std::size_t state_dim = 1 + script.uniform_index(5);
  const bool successors = c % 2 == 1;
  ReplayBuffer ring(capacity, state_dim, successors);
  util::Rng draw_rng(0xd4a3 + c);
  ckpt::Writer draws;
  nn::Matrix states, next_states;
  std::vector<std::size_t> actions;
  std::vector<double> rewards;
  const auto draw = [&](std::size_t n) {
    draws.u64(ring.sample_into(n, draw_rng, states, actions, rewards,
                               successors ? &next_states : nullptr));
    draws.vec_f64(states.data());
    if (successors) draws.vec_f64(next_states.data());
    for (const std::size_t a : actions) draws.u64(a);
    draws.vec_f64(rewards);
  };
  std::vector<double> state(state_dim);
  std::vector<double> next(state_dim);
  const std::size_t ops = 8 + script.uniform_index(3 * capacity + 12);
  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t kind = script.uniform_index(16);
    if (kind == 0) {
      ring.clear();
    } else if (kind <= 2) {
      draw(script.uniform_index(capacity + 4));
    } else {
      for (double& x : state) x = script.uniform(-2.0, 2.0);
      for (double& x : next) x = script.uniform(-2.0, 2.0);
      const std::size_t action = script.uniform_index(256);
      ring.push(state, action, script.uniform(-5.0, 5.0),
                successors ? std::span<const double>(next)
                           : std::span<const double>());
    }
  }
  for (int k = 0; k < 3; ++k) draw(script.uniform_index(capacity + 4));
  return {fnv1a(saved(ring)), fnv1a(draws.data())};
}

// {snapshot, draws} per case; the comment gives capacity x state_dim and
// "+next" for a ring with successors.
constexpr RingDigest kRingGolden[64] = {
    {0x53ed5817775b181eULL, 0x4a47b829231947a2ULL},  // 0: 7x5
    {0x7a8e4201abb7407fULL, 0xa045742e7a38090bULL},  // 1: 12x2 +next
    {0x9085a9e54f795bd9ULL, 0x584baec57cc6c9feULL},  // 2: 4x1
    {0x46a92f8dddd20be6ULL, 0x80c3ac5f70eda4a3ULL},  // 3: 11x4 +next
    {0xa059b7cd276b2d34ULL, 0x1deafe27cea3258dULL},  // 4: 9x4
    {0x038f939a02e209eaULL, 0x3dded217dfb1a6a4ULL},  // 5: 8x2 +next
    {0xb80e36c9169cb8c1ULL, 0xb48f9727dac07cf8ULL},  // 6: 3x3
    {0x80411b78c10cc801ULL, 0xfcd6b240bbc1063bULL},  // 7: 7x3 +next
    {0x4a018bffbeebaa43ULL, 0xd55cf15ce7cab96eULL},  // 8: 3x1
    {0x00474ef58f76f474ULL, 0xecd4c9e6ad31e3e0ULL},  // 9: 12x1 +next
    {0x6de8366d0f898d47ULL, 0x555d901d23179302ULL},  // 10: 3x5
    {0x64bbc06ac94ea1c3ULL, 0xaf0f297b8a47cd23ULL},  // 11: 6x1 +next
    {0x4e1910d1a92c3c6dULL, 0x44c4124fc9144c0dULL},  // 12: 4x2
    {0xfbc5d5bf8e990d5dULL, 0xbc38958d5d5bcf0bULL},  // 13: 3x3 +next
    {0x2222a2da63b5fadfULL, 0xaa6a65909a0ff0cbULL},  // 14: 12x2
    {0x0f0475db8eb6938fULL, 0xdc6208181432b1a8ULL},  // 15: 3x2 +next
    {0x999a5d1a5773bae6ULL, 0x1de851728f72a64eULL},  // 16: 4x3
    {0x6836905b05574659ULL, 0xe53631647b998551ULL},  // 17: 6x4 +next
    {0x3467e1754dde5128ULL, 0xce804a614a705962ULL},  // 18: 8x5
    {0xa4d2693c46b6d865ULL, 0x45773c61c2928edeULL},  // 19: 7x3 +next
    {0x1497800af8319c68ULL, 0x2765509b57f0410eULL},  // 20: 4x1
    {0xe0cbb571cf58a23bULL, 0x77b43b5cce4cbcfdULL},  // 21: 9x1 +next
    {0xbb386ae06667026fULL, 0x9a16adec34f34182ULL},  // 22: 7x5
    {0x37ac63221660f6d8ULL, 0xf37d45362daae4d4ULL},  // 23: 11x2 +next
    {0x1e08817ae224280eULL, 0x6c0ed0474f3e4686ULL},  // 24: 3x4
    {0x873f1e8bf5aae279ULL, 0xeed030b3a1b3fa15ULL},  // 25: 2x1 +next
    {0x6f93079e140b28e5ULL, 0xc2ccc814c4b2e933ULL},  // 26: 2x3
    {0x7ac84225b9e6b442ULL, 0xb89d3c9ff1467cccULL},  // 27: 2x3 +next
    {0x51041a079b12c9adULL, 0x2c7be51b90846354ULL},  // 28: 3x4
    {0xe6c83ef4998b80b9ULL, 0xed66696653e93da9ULL},  // 29: 4x2 +next
    {0x5deaab3402b86d42ULL, 0x1c1d28a0b72bed69ULL},  // 30: 1x2
    {0xdda226407f7414bfULL, 0x956db6390ccf9e08ULL},  // 31: 4x3 +next
    {0x0317e811a0f04e88ULL, 0x68bf3eac716564fdULL},  // 32: 9x5
    {0x8dd0e4a3b5319cfdULL, 0x2bd9aa28194105f1ULL},  // 33: 5x2 +next
    {0xfa19d559034e9f07ULL, 0x0f7e13e88c54c057ULL},  // 34: 11x2
    {0xb8fdcda85ba95261ULL, 0xfe2091d852c137f6ULL},  // 35: 5x2 +next
    {0x3bee2b4deadf1948ULL, 0x4dde1fe6e0c9dffbULL},  // 36: 6x1
    {0x1d3fe58b2f942f3aULL, 0x0abe2949eee72c46ULL},  // 37: 9x5 +next
    {0x4c4559cb64fd8586ULL, 0xa7df11e11791e2aaULL},  // 38: 4x4
    {0xc4ac86f9d9f2fd95ULL, 0xdcd705a5e6e23359ULL},  // 39: 5x4 +next
    {0xaad66d8a6182003eULL, 0x308820fc4bb64cebULL},  // 40: 1x5
    {0x0ef5ecfb60a89df4ULL, 0x377247fc39a48b4aULL},  // 41: 10x4 +next
    {0x426acfa99b165d36ULL, 0xee4404d509decd27ULL},  // 42: 7x2
    {0x7ca3186ad68c2516ULL, 0xde6deced576ae9c3ULL},  // 43: 8x5 +next
    {0xc2cf9c62cfc2273aULL, 0x42e4ed1d8256c4ecULL},  // 44: 3x4
    {0x9ad5cdc1a9174cffULL, 0x8710c04ac9724c23ULL},  // 45: 8x3 +next
    {0xa286e5e302168767ULL, 0x61a612645eb46d06ULL},  // 46: 11x5
    {0x11943444353a8907ULL, 0x6ea4288c5c1899eeULL},  // 47: 8x4 +next
    {0x413fd0728531707bULL, 0xb1355b855ada3973ULL},  // 48: 5x4
    {0x6107d2a59712d413ULL, 0x6359f39d6093b486ULL},  // 49: 9x5 +next
    {0x0eeb7b7a31c1e3bcULL, 0x048ead38523e3dffULL},  // 50: 11x2
    {0x01c1f6c21724c483ULL, 0x0c9047ceb658a568ULL},  // 51: 1x3 +next
    {0x432af57a3f2e799eULL, 0x65a90e097dad9f07ULL},  // 52: 8x3
    {0xbb6a5022af1cae86ULL, 0x08e84097f296bd04ULL},  // 53: 1x5 +next
    {0x73179431964c206aULL, 0x6f767c76cd969b95ULL},  // 54: 5x1
    {0x9576cfeb88befebdULL, 0x3ea306c32a234391ULL},  // 55: 12x5 +next
    {0x3d7aaf0d788bf687ULL, 0xde3b4f8ad9ff0a33ULL},  // 56: 4x5
    {0xa73706633b4c509cULL, 0xbcfc0c6973adbf31ULL},  // 57: 3x3 +next
    {0x26208c7f568bacfaULL, 0x0b94532902551c1fULL},  // 58: 11x2
    {0x90bf7747c61e95e9ULL, 0x9a60285c7569b151ULL},  // 59: 11x1 +next
    {0xb64091faa82181bfULL, 0x955c3dfea7a1f49aULL},  // 60: 8x1
    {0x327c43f61695d0dcULL, 0x09c274420bb8b998ULL},  // 61: 7x4 +next
    {0x7278816d7f0d8e8eULL, 0x66283b241adaa92eULL},  // 62: 11x1
    {0xbd0bcedf999d6906ULL, 0x249e184547f7c31cULL},  // 63: 8x2 +next
};

TEST(ReplayBuffer, BothKindsMatchTheTwoClassGolden) {
  for (std::size_t c = 0; c < 64; ++c) {
    const RingDigest digest = run_ring_case(c);
    EXPECT_EQ(digest.snapshot, kRingGolden[c].snapshot) << c;
    EXPECT_EQ(digest.draws, kRingGolden[c].draws) << c;
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
