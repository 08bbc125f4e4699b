// Replay buffer for full (bootstrapped) Q-learning: stores the successor
// state alongside each transition. Used by NeuralQAgent; the paper's
// contextual-bandit agent needs no successor states (footnote 2) and uses
// the leaner ReplayBuffer. Its storage follows ReplayBuffer's rule: it
// starts empty and grows with the pushes, up to the capacity.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "nn/matrix.hpp"
#include "rl/replay_sampler.hpp"
#include "util/rng.hpp"

namespace fedpower::rl {

struct QTransition {
  std::vector<double> state;
  std::size_t action = 0;
  double reward = 0.0;
  std::vector<double> next_state;
};

class QReplayBuffer {
 public:
  QReplayBuffer(std::size_t capacity, std::size_t state_dim);

  void push(std::span<const double> state, std::size_t action, double reward,
            std::span<const double> next_state);

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Uniform sample of min(n, size()) distinct transitions.
  std::vector<QTransition> sample(std::size_t n, util::Rng& rng) const;

  /// sample() gathered straight into caller-owned storage, as
  /// ReplayBuffer::sample_into; returns the sample count.
  std::size_t sample_into(std::size_t n, util::Rng& rng, nn::Matrix& states,
                          nn::Matrix& next_states,
                          std::vector<std::size_t>& actions,
                          std::vector<double>& rewards);

  QTransition at(std::size_t index) const;

  /// Largest action among the stored transitions (0 when empty).
  std::size_t max_action() const noexcept;

  void clear() noexcept;

  /// Checkpointing; same contract as ReplayBuffer::save_state/restore_state:
  /// QRP2 writes the cursors and the size() live slots, and restore also
  /// reads the full-ring QRPL layout of older builds.
  void save_state(ckpt::Writer& out) const;
  void restore_state(ckpt::Reader& in);

 private:
  std::size_t gather(ReplaySampler& sampler, std::size_t n, util::Rng& rng,
                     nn::Matrix& states, nn::Matrix& next_states,
                     std::vector<std::size_t>& actions,
                     std::vector<double>& rewards) const;
  /// Sizes every storage array to `slots` slots.
  void resize_slots(std::size_t slots);

  std::size_t capacity_;
  std::size_t state_dim_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::vector<float> states_;
  std::vector<float> next_states_;
  std::vector<std::uint8_t> actions_;
  std::vector<float> rewards_;
  ReplaySampler sampler_;  // lint: ckpt-skip(scratch: identity between draws)
};

}  // namespace fedpower::rl
