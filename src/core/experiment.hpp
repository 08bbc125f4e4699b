// Experiment runners reproducing the paper's evaluation protocol (§IV).
// These are shared between the benchmark harnesses, the examples and the
// integration tests, so every consumer measures the exact same procedure:
//
//   * run_federated     — N devices + FedAvg server (the paper's technique),
//                         optional per-round greedy evaluation of the global
//                         policy (Fig. 3 right column, Fig. 4).
//   * run_local_only    — the same devices with no collaboration
//                         (Fig. 3 left column).
//   * run_collab_profit — the Profit+CollabPolicy state of the art
//                         (Table III, Fig. 5).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "baselines/collab_policy.hpp"
#include "chaos/engine.hpp"
#include "core/controller.hpp"
#include "core/evaluate.hpp"
#include "fed/aggregate.hpp"
#include "fed/byzantine.hpp"
#include "fed/defense.hpp"
#include "fed/fault_injection.hpp"
#include "fed/transport.hpp"
#include "sim/application.hpp"
#include "sim/processor.hpp"

namespace fedpower::core {

/// Crash-safe checkpointing of a federated/local run (DESIGN.md §9).
/// With every_rounds > 0, run_federated / run_local_only write a durable
/// snapshot of the whole experiment — fleet, server, partial curves,
/// traffic baseline — into `dir` after each multiple of every_rounds, kept
/// `keep` deep. A run restarted with resume_from pointing at a snapshot
/// file (or at the rotation directory, to pick the newest valid entry)
/// continues from the saved round and finishes bit-identical to the
/// uninterrupted run.
struct CheckpointConfig {
  std::size_t every_rounds = 0;  ///< 0 disables periodic snapshots
  std::string dir;               ///< rotation directory (required if enabled)
  std::size_t keep = 3;          ///< rotation depth
  std::string resume_from;       ///< snapshot file or rotation dir; empty =
                                 ///< start fresh
};

/// Fleet-level fault/attack plan for robustness experiments (DESIGN.md
/// §10). The compromised set is deterministic: the ceil(fraction * N)
/// highest-index devices, so the same config always attacks the same
/// devices regardless of thread count or platform.
struct FaultPlanConfig {
  /// What compromised devices upload (fed::UploadAttack::kNone with a
  /// non-empty compromised set still applies the hardware/reward faults).
  fed::UploadAttack attack = fed::UploadAttack::kNone;
  /// Fraction of the fleet that is compromised (ceil(fraction * N) highest
  /// indices); 0 = everyone honest.
  double fraction = 0.0;
  /// Magnitude for sign-flip / scale attacks.
  double attack_scale = 25.0;
  /// Replay lag for stale-replay attacks.
  std::size_t stale_rounds = 5;
  /// First local round at which upload attacks activate.
  std::size_t start_round = 0;
  /// Training rewards of compromised devices are multiplied by this
  /// (ControllerConfig::reward_poison_scale); 1 = honest learning.
  double reward_poison_scale = 1.0;
  /// Hardware faults injected into compromised devices' processors.
  sim::HardwareFaultConfig hardware{};
  /// Transport-level fault injection applied to the whole federation's
  /// shared transport (honest and compromised devices alike — links do not
  /// know who is malicious).
  fed::FaultInjectionConfig transport{};

  bool compromises_devices() const noexcept {
    return fraction > 0.0 &&
           (attack != fed::UploadAttack::kNone || hardware.any() ||
            reward_poison_scale != 1.0);
  }
  bool faults_transport() const noexcept {
    return transport.drop_probability > 0.0 ||
           transport.delay_probability > 0.0 ||
           transport.truncate_probability > 0.0 ||
           transport.disconnect_probability > 0.0;
  }
  bool any() const noexcept {
    return compromises_devices() || faults_transport();
  }
  /// The compromised device indices for a fleet of the given size, sorted.
  std::vector<std::size_t> compromised_devices(std::size_t fleet_size) const;
};

/// Committing the federated rounds through the sharded serve pipeline:
/// run_federated's one fed::FederatedAveraging driver hands its uploads to
/// a serve::ShardedServer it owns (run_federated only). Plain data here so
/// the experiment header does not pull in the serve subsystem.
/// Deterministic commit mode reproduces inline aggregation bit-identically
/// at any worker count; throughput mode merges FedAsync-style with
/// staleness discounting. The defense pipeline runs in deterministic mode
/// only: throughput mode merges while the shards would screen, so
/// run_federated rejects throughput + defense before building the fleet.
struct ServeExperimentConfig {
  bool enabled = false;
  std::size_t workers = 1;
  std::size_t queue_depth = 256;
  std::size_t batch_max = 16;
  bool deterministic = true;   ///< false = throughput (FedAsync) commit
  double mixing_rate = 0.5;    ///< throughput mode: FedAsync alpha
  double staleness_power = 1.0;
  /// Idle-connection deadline for the TCP front end, seconds; 0 disables
  /// (serve::ServeConfig::idle_timeout_s). Only observable when an
  /// EpollFrontEnd drives the server — the in-process pipeline has no
  /// sockets to reap.
  double idle_timeout_s = 0.0;
};

struct ExperimentConfig {
  ControllerConfig controller{};
  sim::ProcessorConfig processor{};
  EvalConfig eval{};
  std::size_t rounds = 100;  // R
  std::uint64_t seed = 42;
  /// Worker threads for device training/evaluation (runtime::FleetRuntime).
  /// 1 = serial (the default), 0 = one per hardware thread. Results are
  /// bit-identical for every value (DESIGN.md §7).
  std::size_t num_threads = 1;
  CheckpointConfig checkpoint{};
  /// Server aggregation rule (run_federated only).
  fed::AggregationMode aggregation = fed::AggregationMode::kUnweightedMean;
  /// Per-round client sampling (run_federated only). The default is the
  /// paper's full participation; fleet-scale runs set fraction « 1 so the
  /// per-round cost follows the sample, not the fleet (DESIGN.md §11).
  fed::SamplingConfig sampling{};
  /// Minimum surviving uploads per round, checked against the round's
  /// aggregation-eligible participants (fed::FederatedAveraging::set_quorum;
  /// run_federated only).
  std::size_t quorum = 1;
  /// Lazy device instantiation (runtime::FleetOptions::lazy): sampled-out
  /// devices stay as compact cold records and run_federated dehydrates
  /// the previous round's devices as each round starts, so resident
  /// memory follows one round's working set. Results are bit-identical to
  /// an eager fleet.
  bool lazy_fleet = false;
  /// Server-side Byzantine defense (run_federated only; off by default).
  fed::DefenseConfig defense{};
  /// Client/transport fault injection (run_federated only; clean default).
  FaultPlanConfig faults{};
  /// Sharded serve pipeline routing (run_federated only; off by default).
  ServeExperimentConfig serve{};
  /// Deterministic chaos schedule: availability churn and workload shocks
  /// drawn each round from one seeded stream (run_federated only; off by
  /// default). Composes with `faults` — transport-level fault injection
  /// keeps its own per-transfer stream (DESIGN.md §13).
  chaos::ChaosConfig chaos{};
  /// Per-round transport-latency budget per client, in simulated seconds;
  /// 0 disables. Over-budget participants are demoted to dropouts
  /// (stragglers) instead of blocking the round — see
  /// fed::FederatedAveraging::set_round_deadline (run_federated only).
  double deadline_s = 0.0;
  /// Path for per-round JSON-Lines metrics (round index, reward, screening
  /// and straggler counts, hot devices after the commit, RSS, wall time);
  /// empty disables. Streaming telemetry, not a durable artifact: lines
  /// flush per round, so a killed soak keeps every completed round's
  /// record (run_federated only).
  std::string metrics_jsonl;
};

/// Per-round evaluation curves of one device's policy.
struct RoundCurve {
  std::vector<double> reward;
  std::vector<double> mean_freq_mhz;
  std::vector<double> stddev_freq_mhz;
  std::vector<double> mean_power_w;
  std::vector<double> violation_rate;
};

/// What the defense pipeline and fault injection did over a federated run,
/// one entry per completed round (all empty/zero when defense and faults
/// are off). Checkpointed with the experiment, so a resumed run reports
/// the same history as the uninterrupted one.
struct RobustnessReport {
  std::vector<std::uint64_t> screened_per_round;
  std::vector<std::uint64_t> quarantined_per_round;
  std::vector<std::uint64_t> readmitted_per_round;
  std::vector<std::uint64_t> clipped_per_round;
  /// Participants demoted to dropouts by the round deadline, per round
  /// (checkpointed only when the deadline or the chaos engine is armed,
  /// to keep older snapshot layouts byte-stable).
  std::vector<std::uint64_t> stragglers_per_round;
  /// Rounds that aborted below quorum and were retried (checkpointed with
  /// the chaos section). The fault/churn streams advance across an abort,
  /// so every retry faces fresh conditions — a soak rides out a bad draw
  /// instead of dying on it.
  std::uint64_t aborted_rounds = 0;
  std::size_t total_screened = 0;
  std::size_t total_readmitted = 0;
  std::size_t total_clipped = 0;
  std::size_t total_stragglers = 0;
  /// Peak simultaneous quarantine population over the run.
  std::size_t max_quarantined = 0;
  /// Final per-device reputation (empty when defense is off).
  std::vector<double> final_reputation;
  /// Devices the fault plan compromised, sorted (empty when clean).
  std::vector<std::size_t> compromised;
  /// Transport-level fault injection counters (zero when clean).
  fed::FaultInjectionStats transport;
  /// Chaos schedule counters (zero when the chaos engine is off).
  chaos::ChaosStats chaos;
};

struct FederatedRunResult {
  std::vector<RoundCurve> devices;         ///< global policy, per device
  /// Fleet-level curve: per round, the across-device mean of each
  /// per-device value (telemetry is collected per device — possibly on
  /// different threads — then merged through util::RunningStats).
  RoundCurve fleet;
  std::vector<double> global_params;       ///< final global model
  fed::TrafficStats traffic;
  std::vector<std::string> eval_app_per_round;
  RobustnessReport robustness;
};

struct LocalRunResult {
  std::vector<RoundCurve> devices;          ///< each device's own policy
  RoundCurve fleet;                         ///< across-device means per round
  std::vector<std::vector<double>> final_params;
  std::vector<std::string> eval_app_per_round;
};

/// Trains the federated power control. device_apps[i] is the training
/// application set of device i; eval_apps drives the per-round evaluation
/// (cycling one app per round, as in §IV-A). Pass eval_each_round = false
/// to skip evaluation (faster, e.g. for Table III).
FederatedRunResult run_federated(
    const ExperimentConfig& config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    const std::vector<sim::AppProfile>& eval_apps, bool eval_each_round);

/// Trains one isolated controller per device (no server, no averaging).
LocalRunResult run_local_only(
    const ExperimentConfig& config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    const std::vector<sim::AppProfile>& eval_apps, bool eval_each_round);

/// Result of training the Profit+CollabPolicy baseline: per-device policies
/// ready for evaluation.
struct CollabRunResult {
  std::vector<std::shared_ptr<baselines::CollabProfitClient>> clients;
  /// Greedy evaluation policy of device i (local/global arbitration, no
  /// exploration).
  PolicyFn policy(std::size_t device, double f_max_mhz) const;
};

/// Trains the state-of-the-art baseline with the same round structure
/// (R rounds of T steps, aggregation after each round).
CollabRunResult run_collab_profit(
    const ExperimentConfig& config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps);

/// Per-application completion metrics of a policy (Table III rows, Fig. 5
/// bars): mean over devices is up to the caller.
struct AppMetrics {
  std::string app;
  double exec_time_s = 0.0;
  double ips = 0.0;
  double power_w = 0.0;
};

/// Runs every application to completion under the given policy and reports
/// the Table III metrics.
std::vector<AppMetrics> evaluate_apps(const Evaluator& evaluator,
                                      const PolicyFn& policy,
                                      const std::vector<sim::AppProfile>& apps,
                                      std::uint64_t seed);

}  // namespace fedpower::core
