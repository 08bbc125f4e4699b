#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace fedpower::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 random mantissa bits -> uniform in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  FEDPOWER_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::uniform_index(std::uint64_t n) noexcept {
  FEDPOWER_EXPECTS(n > 0);
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;
    while (l < t) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

int Rng::uniform_int(int lo, int hi) noexcept {
  FEDPOWER_EXPECTS(lo <= hi);
  const auto span = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(hi) - static_cast<std::int64_t>(lo) + 1);
  return lo + static_cast<int>(uniform_index(span));
}

Rng::BoxMullerUniforms Rng::box_muller_uniforms() noexcept {
  // Guard against log(0).
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  return {u1, uniform()};
}

double Rng::normal() noexcept {
  const auto [u1, u2] = box_muller_uniforms();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

void Rng::skip_normals(std::size_t n) noexcept {
  // box_muller_uniforms() without the doubles: uniform() <= 0.0 exactly
  // when the top 53 bits of the draw are zero, so the same draws are
  // redrawn and the stream ends where n normal() calls leave it.
  for (std::size_t i = 0; i < n; ++i) {
    while ((next_u64() >> 11) == 0) {
    }
    (void)next_u64();
  }
}

double Rng::normal(double mean, double stddev) noexcept {
  FEDPOWER_EXPECTS(stddev >= 0.0);
  return mean + stddev * normal();
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

std::size_t Rng::categorical(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (const double w : weights) {
    FEDPOWER_EXPECTS(w >= 0.0);
    total += w;
  }
  FEDPOWER_EXPECTS(total > 0.0);
  const double target = uniform() * total;
  double cumulative = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (target < cumulative) return i;
  }
  return weights.size() - 1;  // floating-point edge: fall back to last entry
}

Rng Rng::split() noexcept { return Rng{next_u64()}; }

}  // namespace fedpower::util
