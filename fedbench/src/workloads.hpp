// The benchmark's workloads (why each exists: fedbench/NOTES.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "report.hpp"

namespace fedbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for files a run writes (checkpoints); removed at exit.
  std::string scratch_dir;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_path;
};

/// A run_federated workload: the config plus its generated inputs.
struct SyncSpec {
  fedpower::core::ExperimentConfig config;
  std::vector<std::vector<fedpower::sim::AppProfile>> device_apps;
  std::vector<fedpower::sim::AppProfile> eval_apps;
  bool eval_each_round = false;
};

/// Table II scenario 1 with the Table I agent, per-round greedy eval and
/// rotated FEXP checkpoints every 50 rounds into ckpt_dir.
SyncSpec paper_sync_spec(std::uint64_t seed, std::size_t rounds,
                         const std::string& ckpt_dir);
/// `devices` lazy devices (one SPLASH-2 app each, round-robin), C = 0.01,
/// 4 local steps per round, default defense, no eval.
SyncSpec fleet_lazy_spec(std::uint64_t seed, std::size_t rounds,
                         std::size_t devices);

/// Rounds a run_federated workload commits per repetition.
inline constexpr std::size_t kPaperSyncRounds = 150;
inline constexpr std::size_t kFleetLazyRounds = 3;
inline constexpr std::size_t kFleetLazyDevices = 100000;

/// Everything one committed-model run yields that the checks compare.
struct SyncOutcome {
  std::uint64_t digest = 0;
  std::size_t rounds = 0;
  std::uint64_t aborted = 0;
  double final_reward = 0.0;  ///< mean fleet greedy reward, last 10 %
  fedpower::fed::TrafficStats traffic;
  double wall_s = 0.0;
  double wait_s = 0.0;  ///< runnable, waiting for a CPU others held
  double calibration_s = 0.0;  ///< calibrate.hpp, right after, same CPU
};

/// One untraced repetition through core::run_federated.
SyncOutcome run_federated_once(const SyncSpec& spec);
/// The same, with `config` in place of spec.config.
SyncOutcome run_federated_once(const SyncSpec& spec,
                               const fedpower::core::ExperimentConfig& config);

int run_sync_workload(const SyncSpec& spec, const RunOptions& options);
int run_serve_tcp(const RunOptions& options);

}  // namespace fedbench
