// Action-selection rules over predicted per-action values.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace fedpower::rl {

/// Boltzmann distribution over values with temperature tau (paper Eq. 3).
/// Numerically stabilized by subtracting the maximum before exponentiation.
/// Requires tau > 0 and a non-empty value vector.
[[nodiscard]] std::vector<double> softmax(std::span<const double> values,
                                          double tau);

/// softmax() into caller-owned storage (resized, reusing its capacity).
/// values may view probs itself, which then has its values replaced by
/// their probabilities.
void softmax_into(std::span<const double> values, double tau,
                  std::vector<double>& probs);

/// Samples an action from the softmax distribution. The probabilities go
/// to caller-owned scratch (which values may view, as in softmax_into), so
/// a warm call allocates nothing.
[[nodiscard]] std::size_t sample_softmax(std::span<const double> values,
                                         double tau, util::Rng& rng,
                                         std::vector<double>& probs);

/// Index of the largest value (first on ties).
[[nodiscard]] std::size_t argmax(std::span<const double> values);

/// With probability epsilon a uniform random action, otherwise the argmax.
[[nodiscard]] std::size_t epsilon_greedy(std::span<const double> values,
                                         double epsilon, util::Rng& rng);

/// Shannon entropy (nats) of a probability vector; used to test that the
/// temperature schedule moves the policy from explore to exploit.
[[nodiscard]] double entropy(std::span<const double> probabilities);

}  // namespace fedpower::rl
