// Experience replay buffer (Lin, 1992). Stores the C most recent
// state-action-reward samples from the interaction with the processor
// (paper §III-A); the policy network trains on uniformly sampled batches.
//
// Samples are stored as float32 — the precision the paper's ~100 kB storage
// figure implies for a 4000-entry, 5-feature buffer (§IV-C) — and widened
// to double for training.
//
// The paper's contextual-bandit agent needs no successor states (footnote
// 2); full (bootstrapped) Q-learning does, so a ring built with successors
// stores a next-state column beside the states (NeuralQAgent's ring).
//
// The storage starts empty and grows as pushes fill the ring, capped at
// the capacity (resize_ring_array). A fresh device therefore costs no
// zero-filled 100 kB ring; slot indices, sampling and snapshot bytes are
// those of a ring allocated in full up front.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "nn/matrix.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fedpower::rl {

struct Transition {
  std::vector<double> state;
  std::size_t action = 0;
  double reward = 0.0;
  std::vector<double> next_state;  ///< empty unless the ring has successors
};

/// Partial Fisher-Yates over the age-order indices [0, size) of a replay
/// ring. It keeps an identity permutation; a draw swaps a uniform sample
/// into the front, hands the sampled indices to the caller in draw order,
/// then restores every touched entry so the permutation is the identity
/// again. The RNG is consumed exactly as by shuffling a fresh iota, so the
/// samples match that simpler form bit for bit. The permutation grows with
/// the ring on the first draws and is reused afterwards.
class ReplaySampler {
 public:
  /// Draws min(n, size) distinct indices from [0, size) and calls
  /// visit(row, index) for each, row counting draws from 0. Returns the
  /// number drawn.
  template <class Visit>
  std::size_t draw(std::size_t n, std::size_t size, util::Rng& rng,
                   Visit&& visit) {
    FEDPOWER_EXPECTS(size <= std::numeric_limits<std::uint32_t>::max());
    const std::size_t count = std::min(n, size);
    if (perm_.size() < size) {
      const std::size_t old = perm_.size();
      perm_.resize(size);
      std::iota(perm_.begin() + static_cast<std::ptrdiff_t>(old), perm_.end(),
                static_cast<std::uint32_t>(old));
    }
    swaps_.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto j = static_cast<std::uint32_t>(
          i + static_cast<std::size_t>(rng.uniform_index(size - i)));
      swaps_[i] = j;
      std::swap(perm_[i], perm_[j]);
    }
    for (std::size_t i = 0; i < count; ++i) visit(i, std::size_t{perm_[i]});
    // Every entry a swap moved is some i < count or some swaps_[i].
    for (std::size_t i = 0; i < count; ++i) {
      perm_[i] = static_cast<std::uint32_t>(i);
      perm_[swaps_[i]] = swaps_[i];
    }
    return count;
  }

 private:
  std::vector<std::uint32_t> perm_;
  std::vector<std::uint32_t> swaps_;
};

class ReplayBuffer {
 public:
  /// capacity: maximum number of retained transitions (C in the paper);
  /// state_dim: dimensionality of the state vector; successors: whether
  /// each transition also stores its successor state.
  ReplayBuffer(std::size_t capacity, std::size_t state_dim,
               bool successors = false);

  /// Appends a transition, evicting the oldest once at capacity.
  /// next_state is required on a ring with successors and empty otherwise.
  void push(std::span<const double> state, std::size_t action, double reward,
            std::span<const double> next_state = {});

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t state_dim() const noexcept { return state_dim_; }
  bool has_successors() const noexcept { return successors_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Uniform sample of min(n, size()) distinct transitions.
  std::vector<Transition> sample(std::size_t n, util::Rng& rng) const;

  /// sample() gathered straight into caller-owned storage: row i of states
  /// (and of next_states), actions[i] and rewards[i] hold the i-th draw
  /// (the same draws, from the same RNG stream, as sample()). next_states
  /// is required on a ring with successors and null otherwise. The outputs
  /// are resized to the sample count, reusing their storage, so a warm call
  /// allocates nothing. Returns the sample count.
  std::size_t sample_into(std::size_t n, util::Rng& rng, nn::Matrix& states,
                          std::vector<std::size_t>& actions,
                          std::vector<double>& rewards,
                          nn::Matrix* next_states = nullptr);

  /// Transition by age-order index (0 = oldest retained).
  Transition at(std::size_t index) const;

  /// Storage footprint of the buffer contents at full capacity, in bytes
  /// (float32 states, and successors if stored, + uint8 action + float32
  /// reward per entry). A ring that has not filled yet holds less.
  std::size_t storage_bytes() const noexcept;

  /// Largest action among the stored transitions (0 when empty).
  std::size_t max_action() const noexcept;

  /// Empties the buffer; the storage keeps its capacity, so refilling it
  /// up to the slots it held before allocates nothing.
  void clear() noexcept;

  /// clear() that also frees the storage, the sampler's included: the
  /// buffer then holds what a freshly built one holds.
  void release() noexcept;

  /// Serializes the head/size cursors and only the size() live slots
  /// (RPL2, or QRP2 with successors), so a buffer that has seen a few
  /// steps snapshots in a few hundred bytes instead of the full ring.
  void save_state(ckpt::Writer& out) const;

  /// Restores an RPL2/QRP2 snapshot, or a full-ring RPLY/QRPL snapshot of
  /// older builds, taken from a buffer with the same capacity, state_dim
  /// and successors; the storage is sized to the slots the snapshot
  /// carries. Throws StateMismatchError when the shapes or cursors do not
  /// fit (the config, not the snapshot, decides buffer geometry) and
  /// CorruptSnapshotError when the arrays disagree with the cursors.
  void restore_state(ckpt::Reader& in);

 private:
  /// Sizes every storage array to `slots` slots.
  void resize_slots(std::size_t slots);
  /// The RPL2/QRP2 fields, or with full_ring the RPLY/QRPL layout of older
  /// builds, which differs only in carrying every slot of the ring.
  template <class Self, class Io>
  static void fields(Self& s, Io& io, bool full_ring);
  /// Reads an RPLY/QRPL snapshot; this build never writes one.
  void read_legacy_rply(ckpt::Reader& in);

  std::size_t capacity_;
  std::size_t state_dim_;
  std::size_t head_ = 0;  // next slot to write
  std::size_t size_ = 0;
  // Ring layout, up to capacity slots; states_ holds state_dim per slot.
  std::vector<float> states_;
  std::vector<std::uint8_t> actions_;
  std::vector<float> rewards_;
  ReplaySampler sampler_;  // lint: ckpt-skip(scratch: identity between draws)
  // The successor column (state_dim per slot, laid out as states_), held
  // only by a ring built with successors.
  bool successors_;
  std::vector<float> next_states_;
};

}  // namespace fedpower::rl
