// Save/restore equivalence per stateful component: serialize mid-stream,
// restore into a freshly built (differently seeded) instance, drive both
// with identical inputs and require bit-identical behaviour — the unit-level
// version of the crash-resume guarantee (DESIGN.md §9).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "ckpt/errors.hpp"
#include "fed/federation.hpp"
#include "nn/optimizer.hpp"
#include "rl/drift.hpp"
#include "ckpt/fields.hpp"
#include "rl/neural_agent.hpp"
#include "rl/neural_q_agent.hpp"
#include "rl/replay_buffer.hpp"
#include "sim/processor.hpp"
#include "sim/splash2.hpp"

namespace fedpower {
namespace {

std::vector<std::uint8_t> saved_bytes(const auto& component) {
  ckpt::Writer out;
  component.save_state(out);
  return out.take();
}

// ---------------------------------------------------------------------------
// Optimizers
// ---------------------------------------------------------------------------

TEST(ComponentState, SgdResumesMomentumExactly) {
  nn::Sgd original(0.1, 0.9);
  std::vector<double> params = {0.0, 1.0};
  for (int i = 0; i < 7; ++i) original.step(params, {1.0, -0.5});

  const auto bytes = saved_bytes(original);
  nn::Sgd restored(0.1, 0.9);
  ckpt::Reader in(bytes);
  restored.restore_state(in);
  EXPECT_TRUE(in.exhausted());

  std::vector<double> params_restored = params;
  for (int i = 0; i < 20; ++i) {
    original.step(params, {0.3, 0.3});
    restored.step(params_restored, {0.3, 0.3});
  }
  EXPECT_EQ(params, params_restored);
}

TEST(ComponentState, AdamResumesMomentsAndTimestepExactly) {
  nn::Adam original(0.01);
  std::vector<double> params = {1.0, -2.0, 0.5};
  for (int i = 0; i < 13; ++i)
    original.step(params, {0.1, -0.2, 0.05});

  const auto bytes = saved_bytes(original);
  nn::Adam restored(0.01);
  ckpt::Reader in(bytes);
  restored.restore_state(in);

  std::vector<double> params_restored = params;
  for (int i = 0; i < 50; ++i) {
    original.step(params, {-0.05, 0.1, 0.2});
    restored.step(params_restored, {-0.05, 0.1, 0.2});
  }
  EXPECT_EQ(params, params_restored);
}

TEST(ComponentState, AdamRejectsWrongDimensionSnapshot) {
  nn::Adam two_dim(0.01);
  std::vector<double> params = {1.0, 2.0};
  two_dim.step(params, {0.1, 0.1});
  const auto bytes = saved_bytes(two_dim);

  nn::Adam three_dim(0.01);
  std::vector<double> other = {1.0, 2.0, 3.0};
  three_dim.step(other, {0.1, 0.1, 0.1});
  ckpt::Reader in(bytes);
  EXPECT_THROW(three_dim.restore_state(in), ckpt::StateMismatchError);
}

TEST(ComponentState, OptimizerSnapshotsAreNotInterchangeable) {
  nn::Adam adam(0.01);
  std::vector<double> params = {1.0};
  adam.step(params, {0.1});
  const auto bytes = saved_bytes(adam);
  nn::Sgd sgd(0.01);
  ckpt::Reader in(bytes);
  EXPECT_THROW(sgd.restore_state(in), ckpt::CorruptSnapshotError);
}

// ---------------------------------------------------------------------------
// Replay buffer
// ---------------------------------------------------------------------------

TEST(ComponentState, ReplayBufferRoundTripsContentsAndWritePosition) {
  rl::ReplayBuffer original(4, 2);
  for (int i = 0; i < 6; ++i)  // wraps around: head mid-buffer
    original.push(std::vector<double>{1.0 * i, 2.0 * i}, static_cast<std::size_t>(i % 3),
                  0.1 * i);

  const auto bytes = saved_bytes(original);
  rl::ReplayBuffer restored(4, 2);
  ckpt::Reader in(bytes);
  restored.restore_state(in);
  EXPECT_TRUE(in.exhausted());

  ASSERT_EQ(restored.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(restored.at(i).state, original.at(i).state);
    EXPECT_EQ(restored.at(i).action, original.at(i).action);
    EXPECT_EQ(restored.at(i).reward, original.at(i).reward);
  }
  // Both evict the same slot on the next push.
  original.push(std::vector<double>{9.0, 9.0}, 0, 9.0);
  restored.push(std::vector<double>{9.0, 9.0}, 0, 9.0);
  for (std::size_t i = 0; i < original.size(); ++i)
    EXPECT_EQ(restored.at(i).reward, original.at(i).reward);
}

TEST(ComponentState, ReplayBufferRejectsWrongGeometry) {
  rl::ReplayBuffer original(4, 2);
  original.push(std::vector<double>{1.0, 2.0}, 0, 0.5);
  const auto bytes = saved_bytes(original);

  rl::ReplayBuffer wrong_capacity(8, 2);
  ckpt::Reader in1(bytes);
  EXPECT_THROW(wrong_capacity.restore_state(in1), ckpt::StateMismatchError);

  rl::ReplayBuffer wrong_dim(4, 3);
  ckpt::Reader in2(bytes);
  EXPECT_THROW(wrong_dim.restore_state(in2), ckpt::StateMismatchError);
}

// A hostile snapshot of a ring that never filled: size < capacity but the
// write cursor is not at slot `size`. Restoring it must raise a typed error,
// not leave never-written slots to be sampled as live ones.

/// Overwrites the little-endian u64 at `offset` of a snapshot.
void patch_u64(std::vector<std::uint8_t>& bytes, std::size_t offset,
               std::uint64_t value) {
  for (std::size_t i = 0; i < 8; ++i)
    bytes[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
}

// Both replay layouts start: tag (4 bytes), capacity, state_dim, head, size.
constexpr std::size_t kReplayHeadOffset = 4 + 8 + 8;

TEST(ComponentState, ReplayBufferRejectsHeadOffTheFillLine) {
  rl::ReplayBuffer original(4, 2);
  original.push(std::vector<double>{1.0, 2.0}, 0, 0.5);
  original.push(std::vector<double>{3.0, 4.0}, 1, 0.7);
  auto bytes = saved_bytes(original);
  patch_u64(bytes, kReplayHeadOffset, 2);  // the genuine head: restores
  rl::ReplayBuffer genuine(4, 2);
  ckpt::Reader ok(bytes);
  genuine.restore_state(ok);
  EXPECT_EQ(genuine.size(), 2u);

  patch_u64(bytes, kReplayHeadOffset, 1);
  rl::ReplayBuffer restored(4, 2);
  ckpt::Reader in(bytes);
  EXPECT_THROW(restored.restore_state(in), ckpt::StateMismatchError);
}

TEST(ComponentState, QReplayBufferRejectsHeadOffTheFillLine) {
  rl::ReplayBuffer original(4, 2, /*successors=*/true);
  original.push(std::vector<double>{1.0, 2.0}, 0, 0.5,
                std::vector<double>{2.0, 3.0});
  auto bytes = saved_bytes(original);
  patch_u64(bytes, kReplayHeadOffset, 3);
  rl::ReplayBuffer restored(4, 2, /*successors=*/true);
  ckpt::Reader in(bytes);
  EXPECT_THROW(restored.restore_state(in), ckpt::StateMismatchError);
}

// Hostile RPL2/QRP2 headers and arrays: every forged field must raise a
// typed error before anything is read into (or sized from) it.

constexpr std::size_t kReplaySizeOffset = kReplayHeadOffset + 8;
// The first array's u64 element count follows the 4-field header.
constexpr std::size_t kReplayStatesCountOffset = kReplaySizeOffset + 8;

std::vector<std::uint8_t> two_step_replay() {
  rl::ReplayBuffer buffer(4, 2);
  buffer.push(std::vector<double>{1.0, 2.0}, 0, 0.5);
  buffer.push(std::vector<double>{3.0, 4.0}, 1, 0.7);
  return saved_bytes(buffer);
}

std::vector<std::uint8_t> two_step_q_replay() {
  rl::ReplayBuffer buffer(4, 2, /*successors=*/true);
  buffer.push(std::vector<double>{1.0, 2.0}, 0, 0.5,
              std::vector<double>{2.0, 3.0});
  buffer.push(std::vector<double>{2.0, 3.0}, 1, 0.7,
              std::vector<double>{4.0, 5.0});
  return saved_bytes(buffer);
}

void expect_restore_throws(const std::vector<std::uint8_t>& bytes,
                           bool successors, bool state_mismatch) {
  rl::ReplayBuffer restored(4, 2, successors);
  ckpt::Reader in(bytes);
  if (state_mismatch)
    EXPECT_THROW(restored.restore_state(in), ckpt::StateMismatchError);
  else
    EXPECT_THROW(restored.restore_state(in), ckpt::CorruptSnapshotError);
}

void expect_hostile_replay_rejected(const std::vector<std::uint8_t>& valid,
                                    bool successors) {
  {
    rl::ReplayBuffer restored(4, 2, successors);
    ckpt::Reader in(valid);
    restored.restore_state(in);
    EXPECT_TRUE(in.exhausted());
    EXPECT_EQ(restored.size(), 2u);
  }
  // size > capacity (with head consistent with it).
  auto oversize = valid;
  patch_u64(oversize, kReplayHeadOffset, 3);
  patch_u64(oversize, kReplaySizeOffset, 5);
  expect_restore_throws(oversize, successors, /*state_mismatch=*/true);
  // A size near 2^64: the cursor check rejects it before any array read.
  auto forged_size = valid;
  patch_u64(forged_size, kReplaySizeOffset, ~std::uint64_t{0});
  expect_restore_throws(forged_size, successors, /*state_mismatch=*/true);
  // Consistent cursors, but the arrays hold two entries, not one.
  auto skewed = valid;
  patch_u64(skewed, kReplayHeadOffset, 1);
  patch_u64(skewed, kReplaySizeOffset, 1);
  expect_restore_throws(skewed, successors, /*state_mismatch=*/false);
  // An array count that disagrees with size, including one near 2^64.
  for (const std::uint64_t count : {std::uint64_t{3}, ~std::uint64_t{0},
                                    std::uint64_t{1} << 62}) {
    auto forged_count = valid;
    patch_u64(forged_count, kReplayStatesCountOffset, count);
    expect_restore_throws(forged_count, successors,
                          /*state_mismatch=*/false);
  }
  // Truncated anywhere inside the arrays.
  for (std::size_t cut = kReplayStatesCountOffset; cut < valid.size();
       cut += 3) {
    const std::vector<std::uint8_t> truncated(
        valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut));
    expect_restore_throws(truncated, successors, /*state_mismatch=*/false);
  }
}

TEST(ComponentState, ReplayBufferRejectsHostileLiveSlotSnapshots) {
  expect_hostile_replay_rejected(two_step_replay(), /*successors=*/false);
}

TEST(ComponentState, QReplayBufferRejectsHostileLiveSlotSnapshots) {
  expect_hostile_replay_rejected(two_step_q_replay(), /*successors=*/true);
}

TEST(ComponentState, ReplaySnapshotCarriesOnlyTheLiveSlots) {
  // Paper geometry (C = 4000, 5 features) after four steps: the snapshot
  // holds the header and four entries, not the ~98 KiB ring.
  rl::ReplayBuffer buffer(4000, 5);
  for (int i = 0; i < 4; ++i)
    buffer.push(std::vector<double>(5, 0.25 * i), 1, 0.5);
  constexpr std::size_t kHeader = 4 + 4 * 8;
  constexpr std::size_t kEntry = 5 * 4 + 1 + 4;
  EXPECT_EQ(saved_bytes(buffer).size(), kHeader + 3 * 8 + 4 * kEntry);

  rl::ReplayBuffer q(4000, 5, /*successors=*/true);
  for (int i = 0; i < 4; ++i)
    q.push(std::vector<double>(5, 0.25 * i), 1, 0.5,
           std::vector<double>(5, 0.5 * i));
  EXPECT_EQ(saved_bytes(q).size(), kHeader + 4 * 8 + 4 * (kEntry + 5 * 4));
}

// ---------------------------------------------------------------------------
// Drift monitor
// ---------------------------------------------------------------------------

TEST(ComponentState, DriftMonitorResumesTrackersExactly) {
  rl::DriftConfig config;
  config.warmup = 10;
  config.cooldown = 20;
  config.drop_threshold = 0.3;

  rl::DriftMonitor original(config);
  for (int i = 0; i < 50; ++i) (void)original.observe(0.6);

  const auto bytes = saved_bytes(original);
  rl::DriftMonitor restored(config);
  ckpt::Reader in(bytes);
  restored.restore_state(in);
  EXPECT_TRUE(in.exhausted());

  // A reward collapse right after the save point must trigger identically.
  for (int i = 0; i < 40; ++i)
    EXPECT_EQ(original.observe(-0.8), restored.observe(-0.8)) << i;
  EXPECT_EQ(original.detections(), restored.detections());
}

// ---------------------------------------------------------------------------
// Neural agent (model + optimizer + replay + exploration RNG)
// ---------------------------------------------------------------------------

rl::NeuralAgentConfig small_agent_config() {
  rl::NeuralAgentConfig config;
  config.state_dim = 3;
  config.action_count = 4;
  config.hidden_sizes = {8};
  config.replay_capacity = 64;
  config.batch_size = 16;
  config.optimize_interval = 5;
  return config;
}

TEST(ComponentState, NeuralAgentResumesTrainingBitIdentical) {
  const auto config = small_agent_config();
  rl::NeuralBanditAgent original(config, util::Rng{7});
  const std::vector<double> state = {0.4, -0.2, 0.9};
  for (int i = 0; i < 60; ++i) {
    const std::size_t a = original.select_action(state);
    original.record(state, a, a == 1 ? 0.8 : -0.1);
  }

  const auto bytes = saved_bytes(original);
  // Differently seeded construction: every word of restored state must come
  // from the snapshot, not survive from initialization.
  rl::NeuralBanditAgent restored(config, util::Rng{999});
  ckpt::Reader in(bytes);
  restored.restore_state(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.parameters(), original.parameters());
  EXPECT_EQ(restored.step_count(), original.step_count());

  for (int i = 0; i < 60; ++i) {
    const std::size_t a = original.select_action(state);
    const std::size_t b = restored.select_action(state);
    ASSERT_EQ(a, b) << "exploration diverged at step " << i;
    original.record(state, a, a == 1 ? 0.8 : -0.1);
    restored.record(state, b, b == 1 ? 0.8 : -0.1);
  }
  EXPECT_EQ(restored.parameters(), original.parameters());
  EXPECT_EQ(restored.update_count(), original.update_count());
}

TEST(ComponentState, NeuralAgentRejectsWrongArchitecture) {
  rl::NeuralBanditAgent original(small_agent_config(), util::Rng{7});
  const auto bytes = saved_bytes(original);

  auto bigger = small_agent_config();
  bigger.hidden_sizes = {16};
  rl::NeuralBanditAgent other(bigger, util::Rng{7});
  ckpt::Reader in(bytes);
  EXPECT_THROW(other.restore_state(in), ckpt::CkptError);
}

// A hostile agent snapshot whose replay holds an action the agent does not
// have. The buffer itself stores any action up to 255, so the agent checks
// the range; without that, the first training batch aborts the process in
// the loss's precondition. The snapshots are composed field by field in
// the agents' save_state order, with a valid action as the control.

std::vector<std::uint8_t> bandit_snapshot_replaying(std::size_t action) {
  const rl::NeuralAgentConfig config = small_agent_config();
  const rl::NeuralBanditAgent agent(config, util::Rng{7});
  rl::ReplayBuffer replay(config.replay_capacity, config.state_dim);
  replay.push(std::vector<double>(config.state_dim, 0.5), action, 1.0);
  ckpt::Writer out;
  ckpt::write_tag(out, ckpt::Tag{'A', 'G', 'N', 'T'});
  ckpt::save_rng(out, util::Rng{7});
  out.vec_f64(agent.parameters());
  nn::Adam(config.learning_rate).save_state(out);
  replay.save_state(out);
  out.vec_f64(std::vector<double>{});  // no FedProx anchor
  out.u64(1);                           // step
  out.u64(0);                           // updates
  out.f64(0.0);                         // last loss
  return out.take();
}

TEST(ComponentState, NeuralAgentRejectsReplayedActionOutOfRange) {
  const rl::NeuralAgentConfig config = small_agent_config();
  rl::NeuralBanditAgent control(config, util::Rng{1});
  const auto valid = bandit_snapshot_replaying(config.action_count - 1);
  ckpt::Reader ok(valid);
  control.restore_state(ok);
  EXPECT_TRUE(ok.exhausted());

  rl::NeuralBanditAgent agent(config, util::Rng{1});
  const auto bytes = bandit_snapshot_replaying(config.action_count);
  ckpt::Reader in(bytes);
  EXPECT_THROW(agent.restore_state(in), ckpt::StateMismatchError);
}

std::vector<std::uint8_t> q_snapshot_replaying(std::size_t action) {
  rl::NeuralQConfig config;
  config.base = small_agent_config();
  const rl::NeuralQAgent agent(config, util::Rng{7});
  rl::ReplayBuffer replay(config.base.replay_capacity,
                          config.base.state_dim, /*successors=*/true);
  const std::vector<double> state(config.base.state_dim, 0.5);
  replay.push(state, action, 1.0, state);
  ckpt::Writer out;
  ckpt::write_tag(out, ckpt::Tag{'Q', 'A', 'G', 'T'});
  ckpt::save_rng(out, util::Rng{7});
  out.vec_f64(agent.parameters());  // online
  out.vec_f64(agent.parameters());  // target
  nn::Adam(config.base.learning_rate).save_state(out);
  replay.save_state(out);
  out.u64(1);    // step
  out.u64(0);    // updates
  out.f64(0.0);  // last loss
  return out.take();
}

TEST(ComponentState, NeuralQAgentRejectsReplayedActionOutOfRange) {
  rl::NeuralQConfig config;
  config.base = small_agent_config();
  rl::NeuralQAgent control(config, util::Rng{1});
  const auto valid = q_snapshot_replaying(config.base.action_count - 1);
  ckpt::Reader ok(valid);
  control.restore_state(ok);
  EXPECT_TRUE(ok.exhausted());

  rl::NeuralQAgent agent(config, util::Rng{1});
  const auto bytes = q_snapshot_replaying(200);
  ckpt::Reader in(bytes);
  EXPECT_THROW(agent.restore_state(in), ckpt::StateMismatchError);
}

// ---------------------------------------------------------------------------
// Processor (simulated hardware: RNG, thermal, in-flight application)
// ---------------------------------------------------------------------------

TEST(ComponentState, ProcessorResumesMidApplicationBitIdentical) {
  sim::ProcessorConfig config;  // defaults: noise + jitter active
  sim::SingleAppWorkload workload_a(*sim::splash2_app("fft"));
  sim::SingleAppWorkload workload_b(*sim::splash2_app("fft"));

  sim::Processor original(config, util::Rng{11});
  original.set_workload(&workload_a);
  original.set_level(9);
  for (int i = 0; i < 25; ++i) (void)original.run_interval(0.5);

  const auto bytes = saved_bytes(original);
  sim::Processor restored(config, util::Rng{4242});
  restored.set_workload(&workload_b);
  ckpt::Reader in(bytes);
  restored.restore_state(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.time_s(), original.time_s());

  for (int i = 0; i < 25; ++i) {
    if (i == 10) {
      original.set_level(3);
      restored.set_level(3);
    }
    const sim::TelemetrySample a = original.run_interval(0.5);
    const sim::TelemetrySample b = restored.run_interval(0.5);
    EXPECT_EQ(a.app_name, b.app_name) << i;
    EXPECT_EQ(a.level, b.level) << i;
    EXPECT_EQ(a.freq_mhz, b.freq_mhz) << i;
    EXPECT_EQ(a.power_w, b.power_w) << i;
    EXPECT_EQ(a.true_power_w, b.true_power_w) << i;
    EXPECT_EQ(a.instructions, b.instructions) << i;
    EXPECT_EQ(a.ipc, b.ipc) << i;
    EXPECT_EQ(a.temperature_c, b.temperature_c) << i;
  }
}

// ---------------------------------------------------------------------------
// Federated averaging server
// ---------------------------------------------------------------------------

/// Deterministic test client: adds a fixed delta each local round.
class DeltaClient final : public fed::FederatedClient {
 public:
  explicit DeltaClient(double delta) : delta_(delta) {}
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {
    for (double& p : params_) p += delta_;
  }

 private:
  double delta_;
  std::vector<double> params_;
};

TEST(ComponentState, FederationServerResumesRoundsAndParticipationStream) {
  DeltaClient a1(+1.0), a2(-0.5), a3(+0.25);
  fed::InProcessTransport transport_a;
  fed::FederatedAveraging original({&a1, &a2, &a3}, &transport_a);
  original.initialize({0.0, 10.0});
  // 2 of 3 clients per round.
  original.set_sampling({.fraction = 0.5, .seed = 77});
  for (int i = 0; i < 4; ++i) (void)original.run_round();

  const auto bytes = saved_bytes(original);
  DeltaClient b1(+1.0), b2(-0.5), b3(+0.25);
  fed::InProcessTransport transport_b;
  fed::FederatedAveraging restored({&b1, &b2, &b3}, &transport_b);
  restored.initialize({99.0, 99.0});  // overwritten by the snapshot
  // The seed is overwritten too.
  restored.set_sampling({.fraction = 0.5, .seed = 1234});
  ckpt::Reader in(bytes);
  restored.restore_state(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.rounds_completed(), original.rounds_completed());
  EXPECT_EQ(restored.global_model(), original.global_model());

  for (int i = 0; i < 6; ++i) {
    const fed::RoundResult ra = original.run_round();
    const fed::RoundResult rb = restored.run_round();
    EXPECT_EQ(ra.participants, rb.participants) << "round " << i;
  }
  EXPECT_EQ(restored.global_model(), original.global_model());
}

TEST(ComponentState, FederationServerRejectsWrongClientCount) {
  DeltaClient a1(1.0), a2(1.0);
  fed::InProcessTransport transport;
  fed::FederatedAveraging two({&a1, &a2}, &transport);
  two.initialize({0.0});
  const auto bytes = saved_bytes(two);

  DeltaClient b1(1.0);
  fed::FederatedAveraging one({&b1}, &transport);
  one.initialize({0.0});
  ckpt::Reader in(bytes);
  EXPECT_THROW(one.restore_state(in), ckpt::StateMismatchError);
}

}  // namespace
}  // namespace fedpower
