// FedPower — federated reinforcement learning for power-efficient DVFS on
// edge devices. Umbrella header for the full public API.
//
// Library layout (see DESIGN.md for the rationale):
//   util/      deterministic RNG, statistics, CSV/table output
//   nn/        small dense neural networks (the policy model)
//   sim/       the edge-processor simulator (DVFS, power, workloads)
//   rl/        replay buffer, schedules, rewards, the neural bandit agent
//   fed/       federated averaging: clients, server, transport
//   serve/     sharded async server: epoll front end, SPSC worker shards
//   baselines/ Profit [6] and CollabPolicy [11] comparison techniques
//   core/      the power controller, evaluation and experiment runners
//   runtime/   thread-pool fleet execution (deterministic parallel rounds)
#pragma once

#include "baselines/collab_policy.hpp"
#include "baselines/profit.hpp"
#include "core/controller.hpp"
#include "core/evaluate.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "core/scenario.hpp"
#include "fed/aggregate.hpp"
#include "fed/codec.hpp"
#include "fed/dp.hpp"
#include "fed/federation.hpp"
#include "fed/personalize.hpp"
#include "fed/secure_agg.hpp"
#include "fed/transport.hpp"
#include "nn/activation.hpp"
#include "nn/dense.hpp"
#include "nn/gradcheck.hpp"
#include "nn/loss.hpp"
#include "nn/matrix.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "rl/drift.hpp"
#include "runtime/fleet_runtime.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/epoll_server.hpp"
#include "serve/server.hpp"
#include "serve/spsc_queue.hpp"
#include "serve/wire.hpp"
#include "rl/neural_agent.hpp"
#include "rl/neural_q_agent.hpp"
#include "rl/policy.hpp"
#include "rl/replay_buffer.hpp"
#include "rl/reward.hpp"
#include "rl/schedule.hpp"
#include "rl/state.hpp"
#include "rl/tabular.hpp"
#include "sim/application.hpp"
#include "sim/generator.hpp"
#include "sim/governor.hpp"
#include "sim/perf_model.hpp"
#include "sim/power_model.hpp"
#include "sim/device.hpp"
#include "sim/multicore.hpp"
#include "sim/processor.hpp"
#include "sim/splash2.hpp"
#include "sim/telemetry.hpp"
#include "sim/thermal.hpp"
#include "sim/vf_table.hpp"
#include "sim/workload.hpp"
#include "util/config.hpp"
#include "util/csv.hpp"
#include "util/executor.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
