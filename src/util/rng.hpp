// Deterministic random number generation.
//
// Every stochastic component in the library takes an explicit Rng (or a
// seed); there is no global RNG state. This makes experiments bit-for-bit
// reproducible across runs given the same seed (DESIGN.md §5.3).
//
// The generator is xoshiro256++ seeded via splitmix64, which is fast, has
// 256-bit state and passes BigCrush; std::mt19937 would also work but its
// seeding from a single integer is notoriously poor.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "util/assert.hpp"

namespace fedpower::util {

/// Splitmix64 step; used for seeding and as a cheap stateless hash.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256++ pseudo-random generator with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state from a single 64-bit seed via splitmix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  /// Raw 64 random bits.
  [[nodiscard]] std::uint64_t next_u64() noexcept;

  // UniformRandomBitGenerator interface (usable with <algorithm>/<random>).
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next_u64(); }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's method.
  [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] int uniform_int(int lo, int hi) noexcept;

  /// Standard normal via Box–Muller (no cached spare: keeps state minimal).
  [[nodiscard]] double normal() noexcept;

  /// Normal with the given mean and standard deviation (stddev >= 0).
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Advances the stream past n normal() draws without computing them:
  /// the same uniforms are pulled (log-guard retries included), so the
  /// state afterwards equals that after n calls to normal().
  void skip_normals(std::size_t n) noexcept;

  /// Bernoulli trial with probability p of returning true.
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Requires at least one strictly positive weight.
  [[nodiscard]] std::size_t categorical(const std::vector<double>& weights) noexcept;

  /// Fisher–Yates shuffle of an arbitrary random-access container.
  template <typename Container>
  void shuffle(Container& c) noexcept {
    for (std::size_t i = c.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      using std::swap;
      swap(c[i - 1], c[j]);
    }
  }

  /// Derives an independent child generator (for per-device streams).
  [[nodiscard]] Rng split() noexcept;

  /// The raw 256-bit generator state, for checkpointing. Restoring a saved
  /// state resumes the stream exactly where it left off (normal() caches no
  /// spare, so the state array is the complete generator state).
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }

  /// Replaces the generator state. The all-zero state is a fixed point of
  /// xoshiro256++ (the generator would emit zeros forever) and is rejected.
  void set_state(const std::array<std::uint64_t, 4>& state) noexcept {
    FEDPOWER_EXPECTS(state[0] != 0 || state[1] != 0 || state[2] != 0 ||
                     state[3] != 0);
    state_ = state;
  }

 private:
  /// The two uniforms one Box–Muller draw consumes: u1 in (0, 1), redrawn
  /// while it is 0 (log guard), then u2 in [0, 1).
  struct BoxMullerUniforms {
    double u1;
    double u2;
  };
  BoxMullerUniforms box_muller_uniforms() noexcept;

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace fedpower::util
