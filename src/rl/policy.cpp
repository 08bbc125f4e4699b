#include "rl/policy.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace fedpower::rl {

std::vector<double> softmax(std::span<const double> values, double tau) {
  std::vector<double> probs;
  softmax_into(values, tau, probs);
  return probs;
}

void softmax_into(std::span<const double> values, double tau,
                  std::vector<double>& probs) {
  FEDPOWER_EXPECTS(!values.empty());
  FEDPOWER_EXPECTS(tau > 0.0);
  const double v_max = *std::max_element(values.begin(), values.end());
  probs.resize(values.size());
  double total = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    probs[i] = std::exp((values[i] - v_max) / tau);
    total += probs[i];
  }
  for (double& p : probs) p /= total;
}

std::size_t sample_softmax(std::span<const double> values, double tau,
                           util::Rng& rng, std::vector<double>& probs) {
  softmax_into(values, tau, probs);
  return rng.categorical(probs);
}

std::size_t argmax(std::span<const double> values) {
  FEDPOWER_EXPECTS(!values.empty());
  return static_cast<std::size_t>(
      std::max_element(values.begin(), values.end()) - values.begin());
}

std::size_t epsilon_greedy(std::span<const double> values, double epsilon,
                           util::Rng& rng) {
  FEDPOWER_EXPECTS(epsilon >= 0.0 && epsilon <= 1.0);
  if (rng.bernoulli(epsilon))
    return static_cast<std::size_t>(rng.uniform_index(values.size()));
  return argmax(values);
}

double entropy(std::span<const double> probabilities) {
  double h = 0.0;
  for (const double p : probabilities) {
    FEDPOWER_EXPECTS(p >= 0.0 && p <= 1.0 + 1e-12);
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

}  // namespace fedpower::rl
