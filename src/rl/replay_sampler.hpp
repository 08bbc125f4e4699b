// What the two replay rings (ReplayBuffer, QReplayBuffer) share: the rule
// by which their storage grows, and uniform sampling without replacement,
// allocation-free once warm.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace fedpower::rl {

/// Sizes one ring array to `slots` slots of `width` elements each. Ring
/// storage starts empty and grows as pushes fill the ring, so a device
/// that has taken a few steps holds a few slots, not a zero-filled ring.
/// Growth reserves geometrically, as push_back does, but never past
/// `capacity` slots, so a full ring holds exactly its capacity.
template <class T>
void resize_ring_array(std::vector<T>& array, std::size_t slots,
                       std::size_t width, std::size_t capacity) {
  if (slots * width > array.capacity()) {
    const std::size_t held = array.size() / width;
    array.reserve(std::min(capacity, std::max(slots, 2 * held)) * width);
  }
  array.resize(slots * width);
}

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

}  // namespace fedpower::rl
