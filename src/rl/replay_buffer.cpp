#include "rl/replay_buffer.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace fedpower::rl {

ReplayBuffer::ReplayBuffer(std::size_t capacity, std::size_t state_dim)
    : capacity_(capacity), state_dim_(state_dim) {
  FEDPOWER_EXPECTS(capacity > 0);
  FEDPOWER_EXPECTS(state_dim > 0);
}

void ReplayBuffer::resize_slots(std::size_t slots) {
  resize_ring_array(states_, slots, state_dim_, capacity_);
  resize_ring_array(actions_, slots, 1, capacity_);
  resize_ring_array(rewards_, slots, 1, capacity_);
}

void ReplayBuffer::push(std::span<const double> state, std::size_t action,
                        double reward) {
  FEDPOWER_EXPECTS(state.size() == state_dim_);
  FEDPOWER_EXPECTS(action <= 255);
  // Storage grows on push: a write one past the stored slots appends a
  // slot, any other write overwrites in place.
  if (head_ == actions_.size()) resize_slots(head_ + 1);
  float* slot = &states_[head_ * state_dim_];
  for (std::size_t i = 0; i < state_dim_; ++i)
    slot[i] = static_cast<float>(state[i]);
  actions_[head_] = static_cast<std::uint8_t>(action);
  rewards_[head_] = static_cast<float>(reward);
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

Transition ReplayBuffer::at(std::size_t index) const {
  FEDPOWER_EXPECTS(index < size_);
  // Oldest element sits at head_ when full, at 0 otherwise.
  const std::size_t base = size_ == capacity_ ? head_ : 0;
  const std::size_t slot = (base + index) % capacity_;
  Transition t;
  t.state.resize(state_dim_);
  for (std::size_t i = 0; i < state_dim_; ++i)
    t.state[i] = static_cast<double>(states_[slot * state_dim_ + i]);
  t.action = actions_[slot];
  t.reward = static_cast<double>(rewards_[slot]);
  return t;
}

std::size_t ReplayBuffer::gather(ReplaySampler& sampler, std::size_t n,
                                 util::Rng& rng, nn::Matrix& states,
                                 std::vector<std::size_t>& actions,
                                 std::vector<double>& rewards) const {
  const std::size_t count = std::min(n, size_);
  states.resize(count, state_dim_);
  actions.resize(count);
  rewards.resize(count);
  // Oldest element sits at head_ when full, at 0 otherwise (as in at()).
  const std::size_t base = size_ == capacity_ ? head_ : 0;
  return sampler.draw(count, size_, rng, [&](std::size_t row,
                                             std::size_t index) {
    const std::size_t slot = (base + index) % capacity_;
    const float* src = &states_[slot * state_dim_];
    double* dst = &states.data()[row * state_dim_];
    for (std::size_t i = 0; i < state_dim_; ++i)
      dst[i] = static_cast<double>(src[i]);
    actions[row] = actions_[slot];
    rewards[row] = static_cast<double>(rewards_[slot]);
  });
}

std::size_t ReplayBuffer::sample_into(std::size_t n, util::Rng& rng,
                                      nn::Matrix& states,
                                      std::vector<std::size_t>& actions,
                                      std::vector<double>& rewards) {
  return gather(sampler_, n, rng, states, actions, rewards);
}

std::vector<Transition> ReplayBuffer::sample(std::size_t n,
                                             util::Rng& rng) const {
  ReplaySampler sampler;
  nn::Matrix states;
  std::vector<std::size_t> actions;
  std::vector<double> rewards;
  const std::size_t count =
      gather(sampler, n, rng, states, actions, rewards);
  std::vector<Transition> batch(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto row = states.data().begin() +
                     static_cast<std::ptrdiff_t>(i * state_dim_);
    batch[i].state.assign(row, row + static_cast<std::ptrdiff_t>(state_dim_));
    batch[i].action = actions[i];
    batch[i].reward = rewards[i];
  }
  return batch;
}

std::size_t ReplayBuffer::storage_bytes() const noexcept {
  return capacity_ * (state_dim_ * sizeof(float) + sizeof(std::uint8_t) +
                      sizeof(float));
}

std::size_t ReplayBuffer::max_action() const noexcept {
  // Live entries always occupy slots [0, size).
  const auto live = actions_.begin() + static_cast<std::ptrdiff_t>(size_);
  return size_ == 0 ? 0 : *std::max_element(actions_.begin(), live);
}

void ReplayBuffer::clear() noexcept {
  head_ = 0;
  size_ = 0;
  resize_slots(0);  // no slot is stored; the capacity is kept for pushes
}

namespace {
constexpr ckpt::Tag kReplayTag{'R', 'P', 'L', '2'};
/// The full-ring layout of older builds; restore still reads it.
constexpr ckpt::Tag kLegacyReplayTag{'R', 'P', 'L', 'Y'};
}  // namespace

void ReplayBuffer::save_state(ckpt::Writer& out) const {
  write_tag(out, kReplayTag);
  out.u64(capacity_);
  out.u64(state_dim_);
  out.u64(head_);
  out.u64(size_);
  // Live entries always occupy slots [0, size); the rest is never read.
  out.vec_f32(std::span(states_).first(size_ * state_dim_));
  out.vec_u8(std::span(actions_).first(size_));
  out.vec_f32(std::span(rewards_).first(size_));
}

void ReplayBuffer::restore_state(ckpt::Reader& in) {
  const bool legacy =
      ckpt::expect_tag_of(in, {kReplayTag, kLegacyReplayTag},
                          "replay buffer") == 1;
  const std::uint64_t capacity = in.u64();
  const std::uint64_t state_dim = in.u64();
  if (capacity != capacity_ || state_dim != state_dim_)
    throw ckpt::StateMismatchError(
        "replay buffer snapshot geometry " + std::to_string(capacity) + "x" +
        std::to_string(state_dim) + " does not match configured " +
        std::to_string(capacity_) + "x" + std::to_string(state_dim_));
  const std::uint64_t head = in.u64();
  const std::uint64_t size = in.u64();
  // Until the ring first fills, entries occupy slots [0, size) and the
  // next write goes to slot size; any other head would sample never-written
  // slots as live ones.
  if (head >= capacity_ || size > capacity_ ||
      (size < capacity_ && head != size))
    throw ckpt::StateMismatchError(
        "replay buffer snapshot has inconsistent cursors");
  // The legacy layout carries the whole ring, the current one the live
  // slots; either way the storage ends up holding exactly the slots read.
  // It grows before the read and shrinks only after it, so a snapshot that
  // throws mid-read leaves the current cursors in bounds.
  const std::size_t slots = legacy ? capacity_ : size;
  resize_slots(std::max(slots, actions_.size()));
  in.vec_f32_into(std::span(states_).first(slots * state_dim_));
  in.vec_u8_into(std::span(actions_).first(slots));
  in.vec_f32_into(std::span(rewards_).first(slots));
  resize_slots(slots);
  head_ = head;
  size_ = size;
}

}  // namespace fedpower::rl
