#include "rl/q_replay_buffer.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace fedpower::rl {

QReplayBuffer::QReplayBuffer(std::size_t capacity, std::size_t state_dim)
    : capacity_(capacity), state_dim_(state_dim) {
  FEDPOWER_EXPECTS(capacity > 0);
  FEDPOWER_EXPECTS(state_dim > 0);
}

void QReplayBuffer::resize_slots(std::size_t slots) {
  resize_ring_array(states_, slots, state_dim_, capacity_);
  resize_ring_array(next_states_, slots, state_dim_, capacity_);
  resize_ring_array(actions_, slots, 1, capacity_);
  resize_ring_array(rewards_, slots, 1, capacity_);
}

void QReplayBuffer::push(std::span<const double> state, std::size_t action,
                         double reward, std::span<const double> next_state) {
  FEDPOWER_EXPECTS(state.size() == state_dim_);
  FEDPOWER_EXPECTS(next_state.size() == state_dim_);
  FEDPOWER_EXPECTS(action <= 255);
  // Storage grows on push: a write one past the stored slots appends a
  // slot, any other write overwrites in place.
  if (head_ == actions_.size()) resize_slots(head_ + 1);
  float* s = &states_[head_ * state_dim_];
  float* ns = &next_states_[head_ * state_dim_];
  for (std::size_t i = 0; i < state_dim_; ++i) {
    s[i] = static_cast<float>(state[i]);
    ns[i] = static_cast<float>(next_state[i]);
  }
  actions_[head_] = static_cast<std::uint8_t>(action);
  rewards_[head_] = static_cast<float>(reward);
  head_ = (head_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
}

QTransition QReplayBuffer::at(std::size_t index) const {
  FEDPOWER_EXPECTS(index < size_);
  const std::size_t base = size_ == capacity_ ? head_ : 0;
  const std::size_t slot = (base + index) % capacity_;
  QTransition t;
  t.state.resize(state_dim_);
  t.next_state.resize(state_dim_);
  for (std::size_t i = 0; i < state_dim_; ++i) {
    t.state[i] = static_cast<double>(states_[slot * state_dim_ + i]);
    t.next_state[i] =
        static_cast<double>(next_states_[slot * state_dim_ + i]);
  }
  t.action = actions_[slot];
  t.reward = static_cast<double>(rewards_[slot]);
  return t;
}

std::size_t QReplayBuffer::gather(ReplaySampler& sampler, std::size_t n,
                                  util::Rng& rng, nn::Matrix& states,
                                  nn::Matrix& next_states,
                                  std::vector<std::size_t>& actions,
                                  std::vector<double>& rewards) const {
  const std::size_t count = std::min(n, size_);
  states.resize(count, state_dim_);
  next_states.resize(count, state_dim_);
  actions.resize(count);
  rewards.resize(count);
  const std::size_t base = size_ == capacity_ ? head_ : 0;
  return sampler.draw(count, size_, rng, [&](std::size_t row,
                                             std::size_t index) {
    const std::size_t slot = (base + index) % capacity_;
    for (std::size_t i = 0; i < state_dim_; ++i) {
      states(row, i) = static_cast<double>(states_[slot * state_dim_ + i]);
      next_states(row, i) =
          static_cast<double>(next_states_[slot * state_dim_ + i]);
    }
    actions[row] = actions_[slot];
    rewards[row] = static_cast<double>(rewards_[slot]);
  });
}

std::size_t QReplayBuffer::sample_into(std::size_t n, util::Rng& rng,
                                       nn::Matrix& states,
                                       nn::Matrix& next_states,
                                       std::vector<std::size_t>& actions,
                                       std::vector<double>& rewards) {
  return gather(sampler_, n, rng, states, next_states, actions, rewards);
}

std::vector<QTransition> QReplayBuffer::sample(std::size_t n,
                                               util::Rng& rng) const {
  ReplaySampler sampler;
  nn::Matrix states;
  nn::Matrix next_states;
  std::vector<std::size_t> actions;
  std::vector<double> rewards;
  const std::size_t count =
      gather(sampler, n, rng, states, next_states, actions, rewards);
  std::vector<QTransition> batch(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto offset = static_cast<std::ptrdiff_t>(i * state_dim_);
    const auto width = static_cast<std::ptrdiff_t>(state_dim_);
    const auto s = states.data().begin() + offset;
    const auto ns = next_states.data().begin() + offset;
    batch[i].state.assign(s, s + width);
    batch[i].next_state.assign(ns, ns + width);
    batch[i].action = actions[i];
    batch[i].reward = rewards[i];
  }
  return batch;
}

std::size_t QReplayBuffer::max_action() const noexcept {
  // Live entries always occupy slots [0, size).
  const auto live = actions_.begin() + static_cast<std::ptrdiff_t>(size_);
  return size_ == 0 ? 0 : *std::max_element(actions_.begin(), live);
}

void QReplayBuffer::clear() noexcept {
  head_ = 0;
  size_ = 0;
}

namespace {
constexpr ckpt::Tag kQReplayTag{'Q', 'R', 'P', '2'};
/// The full-ring layout of older builds; restore still reads it.
constexpr ckpt::Tag kLegacyQReplayTag{'Q', 'R', 'P', 'L'};
}  // namespace

void QReplayBuffer::save_state(ckpt::Writer& out) const {
  write_tag(out, kQReplayTag);
  out.u64(capacity_);
  out.u64(state_dim_);
  out.u64(head_);
  out.u64(size_);
  // Live entries always occupy slots [0, size); the rest is never read.
  out.vec_f32(std::span(states_).first(size_ * state_dim_));
  out.vec_f32(std::span(next_states_).first(size_ * state_dim_));
  out.vec_u8(std::span(actions_).first(size_));
  out.vec_f32(std::span(rewards_).first(size_));
}

void QReplayBuffer::restore_state(ckpt::Reader& in) {
  const bool legacy =
      ckpt::expect_tag_of(in, {kQReplayTag, kLegacyQReplayTag},
                          "Q replay buffer") == 1;
  const std::uint64_t capacity = in.u64();
  const std::uint64_t state_dim = in.u64();
  if (capacity != capacity_ || state_dim != state_dim_)
    throw ckpt::StateMismatchError(
        "Q replay buffer snapshot geometry " + std::to_string(capacity) + "x" +
        std::to_string(state_dim) + " does not match configured " +
        std::to_string(capacity_) + "x" + std::to_string(state_dim_));
  const std::uint64_t head = in.u64();
  const std::uint64_t size = in.u64();
  // Same cursor invariant as ReplayBuffer::restore_state.
  if (head >= capacity_ || size > capacity_ ||
      (size < capacity_ && head != size))
    throw ckpt::StateMismatchError(
        "Q replay buffer snapshot has inconsistent cursors");
  // Legacy: the whole ring; current: the live slots. Sized as in
  // ReplayBuffer::restore_state.
  const std::size_t slots = legacy ? capacity_ : size;
  resize_slots(std::max(slots, actions_.size()));
  in.vec_f32_into(std::span(states_).first(slots * state_dim_));
  in.vec_f32_into(std::span(next_states_).first(slots * state_dim_));
  in.vec_u8_into(std::span(actions_).first(slots));
  in.vec_f32_into(std::span(rewards_).first(slots));
  resize_slots(slots);
  head_ = head;
  size_ = size;
}

}  // namespace fedpower::rl
