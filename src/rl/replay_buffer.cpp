#include "rl/replay_buffer.hpp"

#include "ckpt/fields.hpp"

namespace fedpower::rl {

namespace {

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

/// Narrows one state into the float32 slot `slot` of `column`.
void store_row(std::vector<float>& column, std::size_t slot,
               std::span<const double> state) {
  float* dst = &column[slot * state.size()];
  for (std::size_t i = 0; i < state.size(); ++i)
    dst[i] = static_cast<float>(state[i]);
}

/// Widens the float32 slot `slot` of `column` into row `row` of `out`.
void load_row(const std::vector<float>& column, std::size_t slot,
              nn::Matrix& out, std::size_t row, std::size_t width) {
  const float* src = &column[slot * width];
  double* dst = &out.data()[row * width];
  for (std::size_t i = 0; i < width; ++i)
    dst[i] = static_cast<double>(src[i]);
}

}  // namespace

ReplayBuffer::ReplayBuffer(std::size_t capacity, std::size_t state_dim,
                           bool successors)
    : capacity_(capacity), state_dim_(state_dim), successors_(successors) {
  FEDPOWER_EXPECTS(capacity > 0);
  FEDPOWER_EXPECTS(state_dim > 0);
}

void ReplayBuffer::resize_slots(std::size_t slots) {
  resize_ring_array(states_, slots, state_dim_, capacity_);
  if (successors_)
    resize_ring_array(next_states_, slots, state_dim_, capacity_);
  resize_ring_array(actions_, slots, 1, capacity_);
  resize_ring_array(rewards_, slots, 1, capacity_);
}

void ReplayBuffer::push(std::span<const double> state, std::size_t action,
                        double reward, std::span<const double> next_state) {
  FEDPOWER_EXPECTS(state.size() == state_dim_);
  FEDPOWER_EXPECTS(next_state.size() == (successors_ ? state_dim_ : 0));
  FEDPOWER_EXPECTS(action <= 255);
  // Storage grows on push: a write one past the stored slots appends a
  // slot, any other write overwrites in place.
  if (head_ == actions_.size()) resize_slots(head_ + 1);
  store_row(states_, head_, state);
  if (successors_) store_row(next_states_, head_, next_state);
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
  const auto row = [&](const std::vector<float>& column) {
    const auto first = column.begin() +
                       static_cast<std::ptrdiff_t>(slot * state_dim_);
    return std::vector<double>(
        first, first + static_cast<std::ptrdiff_t>(state_dim_));
  };
  Transition t;
  t.state = row(states_);
  if (successors_) t.next_state = row(next_states_);
  t.action = actions_[slot];
  t.reward = static_cast<double>(rewards_[slot]);
  return t;
}

std::size_t ReplayBuffer::sample_into(std::size_t n, util::Rng& rng,
                                      nn::Matrix& states,
                                      std::vector<std::size_t>& actions,
                                      std::vector<double>& rewards,
                                      nn::Matrix* next_states) {
  FEDPOWER_EXPECTS(successors_ == (next_states != nullptr));
  const std::size_t count = std::min(n, size_);
  states.resize(count, state_dim_);
  actions.resize(count);
  rewards.resize(count);
  // Oldest element sits at head_ when full, at 0 otherwise (as in at()).
  const std::size_t base = size_ == capacity_ ? head_ : 0;
  const auto visit = [&](std::size_t row, std::size_t index) {
    const std::size_t slot = (base + index) % capacity_;
    load_row(states_, slot, states, row, state_dim_);
    actions[row] = actions_[slot];
    rewards[row] = static_cast<double>(rewards_[slot]);
    return slot;
  };
  // The successor column is chosen once per call, not once per draw.
  if (next_states == nullptr) return sampler_.draw(count, size_, rng, visit);
  next_states->resize(count, state_dim_);
  return sampler_.draw(count, size_, rng,
                       [&](std::size_t row, std::size_t index) {
                         load_row(next_states_, visit(row, index),
                                  *next_states, row, state_dim_);
                       });
}

std::vector<Transition> ReplayBuffer::sample(std::size_t n,
                                             util::Rng& rng) const {
  ReplaySampler sampler;
  std::vector<Transition> batch;
  batch.reserve(std::min(n, size_));
  sampler.draw(n, size_, rng, [&](std::size_t, std::size_t index) {
    batch.push_back(at(index));
  });
  return batch;
}

std::size_t ReplayBuffer::storage_bytes() const noexcept {
  const std::size_t columns = successors_ ? 2 : 1;
  return capacity_ * (columns * state_dim_ * sizeof(float) +
                      sizeof(std::uint8_t) + sizeof(float));
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

void ReplayBuffer::release() noexcept {
  head_ = 0;
  size_ = 0;
  states_ = {};
  actions_ = {};
  rewards_ = {};
  next_states_ = {};
  sampler_ = {};
}

namespace {
constexpr ckpt::Tag kReplayTag{'R', 'P', 'L', '2'};
constexpr ckpt::Tag kQReplayTag{'Q', 'R', 'P', '2'};
/// The full-ring layouts of older builds; restore still reads them.
constexpr ckpt::Tag kLegacyReplayTag{'R', 'P', 'L', 'Y'};
constexpr ckpt::Tag kLegacyQReplayTag{'Q', 'R', 'P', 'L'};
}  // namespace

template <class Self, class Io>
void ReplayBuffer::fields(Self& s, Io& io, bool full_ring) {
  const char* name = s.successors_ ? "Q replay buffer" : "replay buffer";
  if (full_ring)
    io.tag(s.successors_ ? kLegacyQReplayTag : kLegacyReplayTag, name);
  else
    io.tag(s.successors_ ? kQReplayTag : kReplayTag, name);
  io.expect_count(s.capacity_, "slot(s) of capacity");
  io.expect_count(s.state_dim_, "state dimension(s)");
  std::size_t head = s.head_;
  std::size_t size = s.size_;
  io.u64(head, size);
  // Until the ring first fills, entries occupy slots [0, size) and the
  // next write goes to slot size; any other head would sample never-written
  // slots as live ones.
  io.check(head < s.capacity_ && size <= s.capacity_ &&
               (size == s.capacity_ || head == size),
           "has inconsistent cursors");
  // Live entries always occupy slots [0, size); the full ring carries the
  // rest too. The storage ends up holding exactly the slots read: it grows
  // before the read and shrinks only after it, so a snapshot that throws
  // mid-read leaves the current cursors in bounds.
  const std::size_t slots = full_ring ? s.capacity_ : size;
  if constexpr (Io::kLoad) s.resize_slots(std::max(slots, s.actions_.size()));
  io.vec(std::span(s.states_).first(slots * s.state_dim_));
  if (s.successors_)
    io.vec(std::span(s.next_states_).first(slots * s.state_dim_));
  io.vec(std::span(s.actions_).first(slots),
         std::span(s.rewards_).first(slots));
  if constexpr (Io::kLoad) {
    s.resize_slots(slots);
    s.head_ = head;
    s.size_ = size;
  }
}

void ReplayBuffer::save_state(ckpt::Writer& out) const {
  ckpt::Save io(out);
  fields(*this, io, /*full_ring=*/false);
}

void ReplayBuffer::restore_state(ckpt::Reader& in) {
  if (ckpt::next_tag_is(in, successors_ ? kLegacyQReplayTag
                                        : kLegacyReplayTag)) {
    read_legacy_rply(in);  // lint: ckpt-sym-ok(RPLY/QRPL are only read)
    return;
  }
  ckpt::Load io(in);
  fields(*this, io, /*full_ring=*/false);
}

void ReplayBuffer::read_legacy_rply(ckpt::Reader& in) {
  ckpt::Load io(in);
  fields(*this, io, /*full_ring=*/true);
}

}  // namespace fedpower::rl
