#include "layers.hpp"

#include "alloc_count.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "rl/neural_agent.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace fedbench {
namespace {

using namespace fedpower;

// Keeps measured results observable so the calls cannot be elided.
volatile double sink = 0.0;

nn::Matrix random_matrix(std::size_t rows, std::size_t cols,
                         util::Rng& rng) {
  nn::Matrix m(rows, cols);
  for (double& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// Mean allocations per call of fn over `calls` calls.
template <class Fn>
double allocs_per_call(Fn&& fn, std::size_t calls) {
  set_alloc_counting(true);
  const std::uint64_t before = alloc_count();
  for (std::size_t i = 0; i < calls; ++i) fn();
  const std::uint64_t after = alloc_count();
  set_alloc_counting(false);
  return static_cast<double>(after - before) / static_cast<double>(calls);
}

}  // namespace

void measure_client_layers(const core::ControllerConfig& controller,
                           const sim::ProcessorConfig& processor,
                           const std::vector<sim::AppProfile>& apps,
                           std::uint64_t seed, Result& result) {
  const rl::NeuralAgentConfig& agent_config = controller.agent;
  util::Rng rng(seed ^ 0x6c61796572ULL);

  // sim: one DVFS interval of the processor model, cycling the V/f levels.
  {
    sim::Processor cpu(processor, rng.split());
    sim::RandomWorkload workload(apps);
    cpu.set_workload(&workload);
    const std::size_t levels = processor.vf_table.size();
    std::size_t level = 0;
    result.set("sim.run_interval_ns", per_call_ns([&] {
                 cpu.set_level(level++ % levels);
                 sink = sink + cpu.run_interval(controller.dvfs_interval_s)
                                   .power_w;
               }, 2000));
  }

  // nn: the policy network alone.
  {
    nn::Mlp model = nn::make_mlp(agent_config.state_dim,
                                 agent_config.hidden_sizes,
                                 agent_config.action_count, rng);
    const nn::Matrix row = random_matrix(1, agent_config.state_dim, rng);
    const nn::Matrix batch =
        random_matrix(agent_config.batch_size, agent_config.state_dim, rng);
    const nn::Matrix grad = random_matrix(agent_config.batch_size,
                                          agent_config.action_count, rng);
    result.set("nn.forward_row_ns", per_call_ns([&] {
                 sink = sink + model.forward(row).data()[0];
               }, 5000));
    result.set("nn.forward_batch_us", per_call_ns([&] {
                 sink = sink + model.forward(batch).data()[0];
               }, 200) / 1e3);
    (void)model.forward(batch);  // backward reuses these activations
    result.set("nn.backward_us", per_call_ns([&] {
                 sink = sink + model.backward(grad).data()[0];
               }, 200) / 1e3);
    nn::Adam adam(agent_config.learning_rate);
    std::vector<double> params = model.parameters();
    std::vector<double> grads(params.size());
    for (double& g : grads) g = rng.uniform(-1e-3, 1e-3);
    result.set("nn.adam_step_us", per_call_ns([&] {
                 adam.step(params, grads);
                 sink = sink + params[0];
               }, 1000) / 1e3);
  }

  // rl: the bandit agent on a full replay buffer.
  {
    rl::NeuralBanditAgent agent(agent_config, rng.split());
    std::vector<double> state(agent_config.state_dim);
    for (std::size_t i = 0; i < agent_config.replay_capacity; ++i) {
      for (double& s : state) s = rng.uniform();
      agent.record(state, rng.uniform_index(agent_config.action_count),
                   rng.uniform(-1.0, 1.0));
    }
    result.set("rl.select_action_ns", per_call_ns([&] {
                 sink = sink + static_cast<double>(agent.select_action(state));
               }, 5000));
    util::Rng sample_rng(seed);
    result.set("rl.replay_sample_us", per_call_ns([&] {
                 sink = sink + agent.replay()
                                   .sample(agent_config.batch_size, sample_rng)
                                   .front()
                                   .reward;
               }, 200) / 1e3);
    result.set("rl.train_step_us", per_call_ns([&] {
                 sink = sink + agent.train_step();
               }, 100) / 1e3);
    result.set("nn.allocs_per_train_step", allocs_per_call([&] {
                 sink = sink + agent.train_step();
               }, 20));
    result.set("rl.replay_storage_kib",
               static_cast<double>(agent.replay().storage_bytes()) / 1024.0);
  }

  // core: the whole controller step (observe, act, simulate, reward,
  // record; a training update every H steps). Batches are a multiple of H
  // so each holds the same number of updates.
  {
    sim::Processor cpu(processor, rng.split());
    sim::RandomWorkload workload(apps);
    cpu.set_workload(&workload);
    core::PowerController power(controller, &cpu, rng.split());
    power.run_steps(agent_config.replay_capacity);  // fill the replay buffer
    const std::size_t steps = 10 * agent_config.optimize_interval;
    result.set("core.controller_step_ns", per_call_ns([&] {
                 sink = sink + power.step().power_w;
               }, steps));
    result.set("core.allocs_per_step", allocs_per_call([&] {
                 sink = sink + power.step().power_w;
               }, steps));
  }
}

void zero_client_layers(Result& result) {
  for (const char* name :
       {"sim.run_interval_ns", "nn.forward_row_ns", "nn.forward_batch_us",
        "nn.backward_us", "nn.adam_step_us", "nn.allocs_per_train_step",
        "rl.select_action_ns", "rl.replay_sample_us", "rl.train_step_us",
        "rl.replay_storage_kib", "core.controller_step_ns",
        "core.allocs_per_step", "core.train_ms_per_round",
        "core.eval_episode_us", "core.eval_ms_per_round"})
    result.set(name, 0.0);
}

}  // namespace fedbench
