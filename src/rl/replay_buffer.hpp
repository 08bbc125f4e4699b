// Experience replay buffer (Lin, 1992). Stores the C most recent
// state-action-reward samples from the interaction with the processor
// (paper §III-A); the policy network trains on uniformly sampled batches.
//
// Samples are stored as float32 — the precision the paper's ~100 kB storage
// figure implies for a 4000-entry, 5-feature buffer (§IV-C) — and widened
// to double for training.
//
// The storage starts empty and grows as pushes fill the ring, capped at
// the capacity (rl::resize_ring_array). A fresh device therefore costs no
// zero-filled 100 kB ring; slot indices, sampling and snapshot bytes are
// those of a ring allocated in full up front.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "nn/matrix.hpp"
#include "rl/replay_sampler.hpp"
#include "util/rng.hpp"

namespace fedpower::rl {

struct Transition {
  std::vector<double> state;
  std::size_t action = 0;
  double reward = 0.0;
};

class ReplayBuffer {
 public:
  /// capacity: maximum number of retained transitions (C in the paper);
  /// state_dim: dimensionality of the state vector.
  ReplayBuffer(std::size_t capacity, std::size_t state_dim);

  /// Appends a transition, evicting the oldest once at capacity.
  void push(std::span<const double> state, std::size_t action, double reward);

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t state_dim() const noexcept { return state_dim_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Uniform sample of min(n, size()) distinct transitions.
  std::vector<Transition> sample(std::size_t n, util::Rng& rng) const;

  /// sample() gathered straight into caller-owned storage: row i of states,
  /// actions[i] and rewards[i] hold the i-th draw (the same draws, from the
  /// same RNG stream, as sample()). The outputs are resized to the sample
  /// count, reusing their storage, so a warm call allocates nothing.
  /// Returns the sample count.
  std::size_t sample_into(std::size_t n, util::Rng& rng, nn::Matrix& states,
                          std::vector<std::size_t>& actions,
                          std::vector<double>& rewards);

  /// Transition by age-order index (0 = oldest retained).
  Transition at(std::size_t index) const;

  /// Storage footprint of the buffer contents at full capacity, in bytes
  /// (float32 states + uint8 action + float32 reward per entry). A ring
  /// that has not filled yet holds less.
  std::size_t storage_bytes() const noexcept;

  /// Largest action among the stored transitions (0 when empty).
  std::size_t max_action() const noexcept;

  /// Empties the buffer; the storage keeps its capacity, so refilling it
  /// up to the slots it held before allocates nothing.
  void clear() noexcept;

  /// Serializes the head/size cursors and only the size() live slots
  /// (RPL2), so a buffer that has seen a few steps snapshots in a few
  /// hundred bytes instead of the full ring.
  void save_state(ckpt::Writer& out) const;

  /// Restores an RPL2 snapshot, or a full-ring RPLY snapshot of older
  /// builds, taken from a buffer with the same capacity and state_dim; the
  /// storage is sized to the slots the snapshot carries. Throws
  /// StateMismatchError when the shapes or cursors do not fit (the config,
  /// not the snapshot, decides buffer geometry) and CorruptSnapshotError
  /// when the arrays disagree with the cursors.
  void restore_state(ckpt::Reader& in);

 private:
  std::size_t gather(ReplaySampler& sampler, std::size_t n, util::Rng& rng,
                     nn::Matrix& states, std::vector<std::size_t>& actions,
                     std::vector<double>& rewards) const;
  /// Sizes every storage array to `slots` slots.
  void resize_slots(std::size_t slots);

  std::size_t capacity_;
  std::size_t state_dim_;
  std::size_t head_ = 0;  // next slot to write
  std::size_t size_ = 0;
  // Ring layout, up to capacity slots; states_ holds state_dim per slot.
  std::vector<float> states_;
  std::vector<std::uint8_t> actions_;
  std::vector<float> rewards_;
  ReplaySampler sampler_;  // lint: ckpt-skip(scratch: identity between draws)
};

}  // namespace fedpower::rl
