#include "core/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>

#include "chaos/churn_transport.hpp"
#include "ckpt/fields.hpp"
#include "ckpt/rotation.hpp"
#include "ckpt/snapshot.hpp"
#include "fed/federation.hpp"
#include "runtime/fleet_runtime.hpp"
#include "serve/server.hpp"
#include "sim/workload.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace fedpower::core {

std::vector<std::size_t> FaultPlanConfig::compromised_devices(
    std::size_t fleet_size) const {
  std::vector<std::size_t> out;
  if (!compromises_devices() || fleet_size == 0) return out;
  const auto count = std::min(
      fleet_size,
      static_cast<std::size_t>(
          std::ceil(fraction * static_cast<double>(fleet_size))));
  for (std::size_t d = fleet_size - count; d < fleet_size; ++d)
    out.push_back(d);
  return out;
}

namespace {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                    (b * 0xbf58476d1ce4e5b9ULL);
  return util::splitmix64(s);
}

Evaluator make_evaluator(const ExperimentConfig& config) {
  EvalConfig eval = config.eval;
  eval.processor = config.processor;
  // Evaluation measures the policy, not silicon luck: use nominal variation.
  eval.processor.power.variation = 1.0;
  eval.dvfs_interval_s = config.controller.dvfs_interval_s;
  return Evaluator(config.controller, eval);
}

void record_eval(RoundCurve& curve, const EvalResult& result) {
  curve.reward.push_back(result.mean_reward);
  curve.mean_freq_mhz.push_back(result.mean_freq_mhz);
  curve.stddev_freq_mhz.push_back(result.stddev_freq_mhz);
  curve.mean_power_w.push_back(result.mean_power_w);
  curve.violation_rate.push_back(result.violation_rate);
}

/// Merges one round's per-device results into the per-device curves and the
/// fleet curve. The per-device EvalResults are produced in parallel (each
/// episode owns its processor and stats); this merge is the serial step
/// that combines them, RunningStats being the parallel-combinable
/// accumulator.
void record_round(std::vector<RoundCurve>& devices, RoundCurve& fleet,
                  const std::vector<EvalResult>& evals) {
  util::RunningStats reward;
  util::RunningStats freq;
  util::RunningStats freq_stddev;
  util::RunningStats power;
  util::RunningStats violations;
  for (std::size_t d = 0; d < evals.size(); ++d) {
    record_eval(devices[d], evals[d]);
    reward.add(evals[d].mean_reward);
    freq.add(evals[d].mean_freq_mhz);
    freq_stddev.add(evals[d].stddev_freq_mhz);
    power.add(evals[d].mean_power_w);
    violations.add(evals[d].violation_rate);
  }
  fleet.reward.push_back(reward.mean());
  fleet.mean_freq_mhz.push_back(freq.mean());
  fleet.stddev_freq_mhz.push_back(freq_stddev.mean());
  fleet.mean_power_w.push_back(power.mean());
  fleet.violation_rate.push_back(violations.mean());
}

// --- checkpoint payload encoding (DESIGN.md §9) -------------------------

constexpr ckpt::Tag kFedExpTag{'F', 'E', 'X', 'P'};
constexpr ckpt::Tag kLocalExpTag{'L', 'E', 'X', 'P'};

template <class Curve, class Io>
void curve_fields(Curve& curve, Io& io) {
  io.vec(curve.reward, curve.mean_freq_mhz, curve.stddev_freq_mhz,
         curve.mean_power_w, curve.violation_rate);
}

/// The curves both experiment snapshots carry: each device's, the fleet's,
/// and the app each round evaluated.
template <class Result, class Io>
void result_fields(Result& result, Io& io) {
  io.expect_count(result.devices.size(), "device curve(s)");
  for (auto& curve : result.devices) curve_fields(curve, io);
  curve_fields(result.fleet, io);
  io.list(result.eval_app_per_round, [&](auto& name) { io.str(name); });
}

template <class Traffic, class Io>
void traffic_fields(Traffic& stats, Io& io) {
  io.u64(stats.uplink_transfers, stats.uplink_bytes, stats.downlink_transfers,
         stats.downlink_bytes, stats.retries);
  io.f64(stats.total_latency_s);
}

/// Traffic accrued before the snapshot plus traffic of the resumed
/// process's own transport.
fed::TrafficStats merge_traffic(const fed::TrafficStats& base,
                                const fed::TrafficStats& post) {
  fed::TrafficStats sum = base;
  sum.uplink_transfers += post.uplink_transfers;
  sum.uplink_bytes += post.uplink_bytes;
  sum.downlink_transfers += post.downlink_transfers;
  sum.downlink_bytes += post.downlink_bytes;
  sum.retries += post.retries;
  sum.total_latency_s += post.total_latency_s;
  return sum;
}

/// Resolves the resume source: a rotation directory picks its newest valid
/// snapshot (falling back past corrupt entries), a file path is read
/// directly.
std::vector<std::uint8_t> load_resume_payload(const std::string& from,
                                              std::size_t keep) {
  if (std::filesystem::is_directory(from))
    return ckpt::SnapshotRotation(from, keep).load_latest().payload;
  return ckpt::read_snapshot_file(from);
}

/// Opens the rotation for periodic snapshots when enabled.
std::optional<ckpt::SnapshotRotation> make_rotation(
    const CheckpointConfig& checkpoint) {
  if (checkpoint.every_rounds == 0) return std::nullopt;
  if (checkpoint.dir.empty())
    throw ckpt::CkptError(
        "checkpoint.every_rounds is set but checkpoint.dir is empty");
  return ckpt::SnapshotRotation(checkpoint.dir, checkpoint.keep);
}

}  // namespace

FederatedRunResult run_federated(
    const ExperimentConfig& config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    const std::vector<sim::AppProfile>& eval_apps, bool eval_each_round) {
  FEDPOWER_EXPECTS(!eval_apps.empty() || !eval_each_round);
  if (config.serve.enabled && !config.serve.deterministic &&
      config.defense.enabled)
    throw std::invalid_argument(
        "serve.mode = throughput is incompatible with defense.enabled: a "
        "throughput server merges uploads while its shards screen them");

  // Fault plan: compromised devices get their controller configs poisoned
  // and their hardware/uplink faults armed before training starts, so
  // attacked runs are a pure function of (config, seed).
  const std::vector<std::size_t> compromised =
      config.faults.compromised_devices(device_apps.size());
  std::vector<ControllerConfig> controller_configs{config.controller};
  if (!compromised.empty() && config.faults.reward_poison_scale != 1.0) {
    controller_configs.assign(device_apps.size(), config.controller);
    for (const std::size_t d : compromised)
      controller_configs[d].reward_poison_scale =
          config.faults.reward_poison_scale;
  }
  runtime::FleetRuntime fleet(
      controller_configs, config.processor, device_apps, config.seed,
      runtime::FleetOptions{config.num_threads, config.lazy_fleet});
  for (const std::size_t d : compromised) {
    runtime::DeviceFaultConfig faults;
    faults.upload.attack = config.faults.attack;
    faults.upload.scale = config.faults.attack_scale;
    faults.upload.stale_rounds = config.faults.stale_rounds;
    faults.upload.start_round = config.faults.start_round;
    faults.hardware = config.faults.hardware;
    fleet.inject_faults(d, faults);
  }

  fed::InProcessTransport transport;
  std::optional<fed::FaultInjectingTransport> fault_injector;
  fed::Transport* wire = &transport;
  if (config.faults.faults_transport()) {
    fault_injector.emplace(&transport, config.faults.transport);
    wire = &*fault_injector;
  }
  // Chaos schedule (DESIGN.md §13): one engine draws the availability/shock
  // plan each round; per-client churn decorators stack on top of whatever
  // `wire` already is (possibly the fault injector), so transport faults
  // and availability churn compose without sharing RNG streams.
  std::optional<chaos::ChaosEngine> chaos_engine;
  std::vector<std::unique_ptr<chaos::ChurnTransport>> churn_links;
  if (config.chaos.enabled) {
    chaos_engine.emplace(config.chaos, fleet.size());
    churn_links.reserve(fleet.size());
    for (std::size_t d = 0; d < fleet.size(); ++d)
      churn_links.push_back(std::make_unique<chaos::ChurnTransport>(wire));
  }
  // One driver runs the rounds. It aggregates inline or commits through
  // the sharded serve pipeline (DESIGN.md §12); either committer runs the
  // defense stage.
  std::optional<serve::ShardedServer> sharded;
  if (config.serve.enabled) {
    serve::ServeConfig serve_config;
    serve_config.workers = config.serve.workers;
    serve_config.queue_depth = config.serve.queue_depth;
    serve_config.batch_max = config.serve.batch_max;
    serve_config.mode = config.serve.deterministic
                            ? serve::CommitMode::kDeterministic
                            : serve::CommitMode::kThroughput;
    serve_config.aggregation = config.aggregation;
    serve_config.mixing_rate = config.serve.mixing_rate;
    serve_config.staleness_power = config.serve.staleness_power;
    serve_config.idle_timeout_s = config.serve.idle_timeout_s;
    sharded.emplace(fleet.size(), serve_config);
  }
  fed::FederatedAveraging server =
      sharded ? fed::FederatedAveraging(fleet.clients(), wire, &*sharded)
              : fed::FederatedAveraging(fleet.clients(), wire,
                                        config.aggregation);
  server.set_local_executor(fleet.executor());
  server.enable_defense(config.defense);
  // Sampling before any resume below: restore_state overrides the
  // participation stream position, the config itself is not state.
  server.set_sampling(config.sampling);
  server.set_quorum(config.quorum);
  server.initialize(fleet.controller(0).local_parameters());
  if (chaos_engine)
    for (std::size_t d = 0; d < fleet.size(); ++d)
      server.set_client_transport(d, churn_links[d].get());
  if (config.deadline_s > 0.0) server.set_round_deadline(config.deadline_s);

  const Evaluator evaluator = make_evaluator(config);
  FederatedRunResult result;
  result.devices.resize(fleet.size());
  RobustnessReport& robustness = result.robustness;
  // Robustness history rides in the snapshot only for defended/faulted
  // configs, keeping clean-run snapshots byte-identical to older ones; the
  // chaos/deadline sections likewise only appear when armed.
  const bool chaos_ckpt = config.chaos.enabled || config.deadline_s > 0.0;
  const bool robust_ckpt =
      config.defense.enabled || config.faults.any() || chaos_ckpt;

  // The FEXP snapshot: the whole experiment — fleet, server, partial
  // curves and the traffic accrued so far — and the next round to run.
  auto fexp_fields = [&](auto& io, std::size_t& next_round,
                         fed::TrafficStats& traffic) {
    io.tag(kFedExpTag, "federated experiment");
    io.u64(next_round);
    io.section(fleet);
    io.section(server);
    result_fields(result, io);
    traffic_fields(traffic, io);
    if (robust_ckpt)
      io.vec(robustness.screened_per_round, robustness.quarantined_per_round,
             robustness.readmitted_per_round, robustness.clipped_per_round);
    if (fault_injector) io.section(*fault_injector);
    if (chaos_ckpt) {
      io.vec(robustness.stragglers_per_round);
      io.u64(robustness.aborted_rounds);
    }
    if (chaos_engine) io.section(*chaos_engine);
  };

  // Resume: restore the whole experiment, then continue the round loop
  // exactly where the snapshotted process stopped.
  std::size_t start_round = 0;
  fed::TrafficStats traffic_baseline;
  if (!config.checkpoint.resume_from.empty()) {
    const std::vector<std::uint8_t> payload =
        load_resume_payload(config.checkpoint.resume_from,
                            config.checkpoint.keep);
    ckpt::Reader in(payload);
    ckpt::Load io(in);
    fexp_fields(io, start_round, traffic_baseline);
  }
  const std::optional<ckpt::SnapshotRotation> rotation =
      make_rotation(config.checkpoint);

  // Consecutive under-quorum aborts tolerated before the run gives up: a
  // chaos draw can demote or disconnect everyone at once, and a real
  // server would simply start the next round — but a config whose quorum
  // can never hold (deadline below the clean round trip, say) must still
  // fail loudly instead of spinning forever.
  constexpr std::size_t kMaxConsecutiveAborts = 64;
  // Per-round JSON-Lines telemetry (run.metrics_jsonl); append mode so a
  // resumed run continues its predecessor's file. Wall time and RSS here
  // are observability only — they are written to the sidecar file and
  // never feed back into any computation, so determinism holds.
  std::optional<util::JsonlWriter> metrics;
  if (!config.metrics_jsonl.empty()) metrics.emplace(config.metrics_jsonl);
  for (std::size_t round = start_round; round < config.rounds; ++round) {
    const auto round_started =
        std::chrono::steady_clock::now();  // lint: nondet-ok(JSONL wall-time telemetry; never feeds results)
    std::optional<fed::RoundResult> committed;
    std::size_t aborts_in_a_row = 0;
    while (!committed) {
      // A lazy fleet's working set is one round: the previous round's
      // participants (or an aborted attempt's) go cold before this attempt
      // hydrates its own, so at most one round's devices are hot at once.
      if (config.lazy_fleet) fleet.dehydrate_inactive({});
      if (chaos_engine) {
        // Apply this round's chaos plan before any transfer: flip link
        // availability from the engine's mask and deal the workload shock
        // (the shocked device abandons its in-flight application; its next
        // scheduling interval pulls a fresh one from the workload stream).
        const chaos::RoundPlan plan = chaos_engine->begin_round();
        for (std::size_t d = 0; d < churn_links.size(); ++d)
          churn_links[d]->set_online(plan.offline[d] == 0);
        if (plan.shock_device)
          fleet.processor(*plan.shock_device).reset_app();
      }
      try {
        committed = server.run_round();
      } catch (const fed::QuorumError&) {
        // The aborted round committed nothing — the server's round counter
        // and defense state are untouched — but the sampling, fault and
        // churn streams all advanced, so the retry replays deterministically
        // yet faces fresh conditions (simulated time moved on).
        ++robustness.aborted_rounds;
        if (++aborts_in_a_row >= kMaxConsecutiveAborts) throw;
      }
    }
    const fed::RoundResult round_result = *committed;
    // The round's working set, before evaluation or the cooling below.
    const std::size_t hot_devices = metrics ? fleet.hot_count() : 0;
    robustness.screened_per_round.push_back(round_result.screened.size());
    robustness.quarantined_per_round.push_back(
        round_result.quarantined.size());
    robustness.readmitted_per_round.push_back(round_result.readmitted.size());
    robustness.clipped_per_round.push_back(round_result.clipped);
    robustness.stragglers_per_round.push_back(round_result.stragglers.size());
    if (eval_each_round) {
      const sim::AppProfile& app = eval_apps[round % eval_apps.size()];
      result.eval_app_per_round.push_back(app.name);
      // Greedy evaluation of the global policy on every device, in
      // parallel: the tasks share one policy (its row forward keeps no
      // workspace, so they do not race), and each runs an episode seeded
      // by (round, device) — independent of the schedule.
      std::vector<EvalResult> evals(fleet.size());
      const PolicyFn policy = evaluator.neural_policy(server.global_model());
      fleet.for_each_device([&](std::size_t d) {
        evals[d] = evaluator.run_episode(policy, app,
                                         mix_seed(config.seed, round, d));
      });
      record_round(result.devices, result.fleet, evals);
    }
    if (metrics) {
      const double wall_s =
          std::chrono::duration<double>(
              std::chrono::steady_clock::now() -  // lint: nondet-ok(JSONL wall-time telemetry; never feeds results)
              round_started)
              .count();
      metrics->field("round", static_cast<std::uint64_t>(round))
          .field("reward",
                 eval_each_round && !result.fleet.reward.empty()
                     ? result.fleet.reward.back()
                     : std::numeric_limits<double>::quiet_NaN())
          .field("participants",
                 static_cast<std::uint64_t>(round_result.participants.size()))
          .field("screened",
                 static_cast<std::uint64_t>(round_result.screened.size()))
          .field("dropped",
                 static_cast<std::uint64_t>(round_result.dropped.size()))
          .field("stragglers",
                 static_cast<std::uint64_t>(round_result.stragglers.size()))
          .field("aborted", static_cast<std::uint64_t>(aborts_in_a_row))
          .field("hot_devices", static_cast<std::uint64_t>(hot_devices))
          .field("rss_bytes", util::resident_bytes())
          .field("wall_s", wall_s);
      metrics->end_line();
    }
    // Lazy fleets return devices touched outside the round (per-round eval
    // hydrates everything; a chaos shock hydrates its device) to their
    // compact cold form. The participants stay hot until the next round
    // starts, so a checkpoint saves them inline. (Fleet-scale runs skip
    // per-round eval.)
    if (config.lazy_fleet)
      fleet.dehydrate_inactive(round_result.participants);
    if (rotation && (round + 1) % config.checkpoint.every_rounds == 0) {
      ckpt::Writer out;
      ckpt::Save io(out);
      std::size_t next_round = round + 1;
      fed::TrafficStats traffic =
          merge_traffic(traffic_baseline, transport.stats());
      fexp_fields(io, next_round, traffic);
      rotation->save(out.data());
    }
  }

  result.global_params = server.global_model();
  result.traffic = merge_traffic(traffic_baseline, transport.stats());
  robustness.compromised = compromised;
  for (const std::uint64_t v : robustness.screened_per_round)
    robustness.total_screened += v;
  for (const std::uint64_t v : robustness.readmitted_per_round)
    robustness.total_readmitted += v;
  for (const std::uint64_t v : robustness.clipped_per_round)
    robustness.total_clipped += v;
  for (const std::uint64_t v : robustness.stragglers_per_round)
    robustness.total_stragglers += v;
  for (const std::uint64_t v : robustness.quarantined_per_round)
    robustness.max_quarantined =
        std::max<std::size_t>(robustness.max_quarantined, v);
  if (const fed::DefensePipeline* defense = server.defense()) {
    robustness.final_reputation.reserve(fleet.size());
    for (std::size_t d = 0; d < fleet.size(); ++d)
      robustness.final_reputation.push_back(defense->reputation(d));
  }
  if (fault_injector) robustness.transport = fault_injector->fault_stats();
  if (chaos_engine) robustness.chaos = chaos_engine->stats();
  return result;
}

LocalRunResult run_local_only(
    const ExperimentConfig& config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps,
    const std::vector<sim::AppProfile>& eval_apps, bool eval_each_round) {
  FEDPOWER_EXPECTS(!eval_apps.empty() || !eval_each_round);
  runtime::FleetRuntime fleet(
      {config.controller}, config.processor, device_apps, config.seed,
      runtime::FleetOptions{config.num_threads, config.lazy_fleet});

  const Evaluator evaluator = make_evaluator(config);
  LocalRunResult result;
  result.devices.resize(fleet.size());

  // The LEXP snapshot: the fleet, the partial curves and the next round.
  auto lexp_fields = [&](auto& io, std::size_t& next_round) {
    io.tag(kLocalExpTag, "local-only experiment");
    io.u64(next_round);
    io.section(fleet);
    result_fields(result, io);
  };
  std::size_t start_round = 0;
  if (!config.checkpoint.resume_from.empty()) {
    const std::vector<std::uint8_t> payload =
        load_resume_payload(config.checkpoint.resume_from,
                            config.checkpoint.keep);
    ckpt::Reader in(payload);
    ckpt::Load io(in);
    lexp_fields(io, start_round);
  }
  const std::optional<ckpt::SnapshotRotation> rotation =
      make_rotation(config.checkpoint);

  for (std::size_t round = start_round; round < config.rounds; ++round) {
    fleet.run_local_round();
    if (eval_each_round) {
      const sim::AppProfile& app = eval_apps[round % eval_apps.size()];
      result.eval_app_per_round.push_back(app.name);
      std::vector<EvalResult> evals(fleet.size());
      fleet.for_each_device([&](std::size_t d) {
        const PolicyFn policy =
            evaluator.neural_policy(fleet.controller(d).local_parameters());
        evals[d] = evaluator.run_episode(policy, app,
                                         mix_seed(config.seed, round, d));
      });
      record_round(result.devices, result.fleet, evals);
    }
    if (rotation && (round + 1) % config.checkpoint.every_rounds == 0) {
      ckpt::Writer out;
      ckpt::Save io(out);
      std::size_t next_round = round + 1;
      lexp_fields(io, next_round);
      rotation->save(out.data());
    }
  }

  for (std::size_t d = 0; d < fleet.size(); ++d)
    result.final_params.push_back(fleet.controller(d).local_parameters());
  return result;
}

namespace {

/// Device running the Profit+CollabPolicy baseline.
struct TabularDevice {
  sim::Processor* processor = nullptr;
  std::shared_ptr<baselines::CollabProfitClient> client;
  sim::TelemetrySample last_sample{};
  bool have_state = false;
  double f_max_mhz = 0.0;
  double dvfs_interval_s = 0.5;

  void step() {
    if (!have_state) {
      last_sample = processor->run_interval(dvfs_interval_s);
      have_state = true;
    }
    const std::vector<double> features =
        baselines::profit_features(last_sample, f_max_mhz);
    const std::size_t action = client->select_action(features);
    processor->set_level(action);
    const sim::TelemetrySample sample =
        processor->run_interval(dvfs_interval_s);
    const double reward = client->local_agent().reward()(sample);
    client->record(features, action, reward);
    last_sample = sample;
  }
};

}  // namespace

PolicyFn CollabRunResult::policy(std::size_t device, double f_max_mhz) const {
  FEDPOWER_EXPECTS(device < clients.size());
  auto client = clients[device];
  return [client, f_max_mhz](const sim::TelemetrySample& sample) {
    return client->greedy_action(
        baselines::profit_features(sample, f_max_mhz));
  };
}

CollabRunResult run_collab_profit(
    const ExperimentConfig& config,
    const std::vector<std::vector<sim::AppProfile>>& device_apps) {
  FEDPOWER_EXPECTS(!device_apps.empty());
  util::Rng root(config.seed);
  // Same hardware-construction loop (and RNG split order) as the neural
  // fleets; only the mounted brain differs.
  std::vector<runtime::DeviceHardware> hardware =
      runtime::make_hardware(config.processor, device_apps, root);

  baselines::ProfitConfig profit_config;
  profit_config.action_count = config.processor.vf_table.size();
  profit_config.p_crit_w = config.controller.p_crit_w;

  std::vector<TabularDevice> devices;
  devices.reserve(hardware.size());
  for (auto& hw : hardware) {
    TabularDevice device;
    device.processor = hw.processor.get();
    device.client = std::make_shared<baselines::CollabProfitClient>(
        profit_config, hw.brain_rng);
    device.f_max_mhz = config.processor.vf_table.f_max_mhz();
    device.dvfs_interval_s = config.controller.dvfs_interval_s;
    devices.push_back(std::move(device));
  }

  baselines::CollabPolicyServer server(
      devices.front().client->local_agent().discretizer().state_count());

  std::unique_ptr<runtime::ThreadPool> pool;
  const std::size_t threads =
      runtime::resolve_num_threads(config.num_threads);
  if (threads > 1) pool = std::make_unique<runtime::ThreadPool>(threads);

  const std::size_t steps = config.controller.steps_per_round;
  for (std::size_t round = 0; round < config.rounds; ++round) {
    // Local training in parallel (devices are disjoint), then policy
    // export / aggregation / broadcast serially in device order.
    const auto train = [&](std::size_t d) {
      for (std::size_t t = 0; t < steps; ++t) devices[d].step();
    };
    if (pool)
      pool->parallel_for(0, devices.size(), train);
    else
      for (std::size_t d = 0; d < devices.size(); ++d) train(d);

    std::vector<std::vector<baselines::PolicyEntry>> summaries;
    summaries.reserve(devices.size());
    for (auto& device : devices)
      summaries.push_back(device.client->export_policy());
    server.aggregate(summaries);
    for (auto& device : devices)
      device.client->receive_global(server.global());
  }

  CollabRunResult result;
  for (auto& device : devices) result.clients.push_back(device.client);
  return result;
}

std::vector<AppMetrics> evaluate_apps(const Evaluator& evaluator,
                                      const PolicyFn& policy,
                                      const std::vector<sim::AppProfile>& apps,
                                      std::uint64_t seed) {
  std::vector<AppMetrics> metrics;
  metrics.reserve(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const EvalResult result =
        evaluator.run_to_completion(policy, apps[i], mix_seed(seed, i, 0));
    AppMetrics m;
    m.app = result.app;
    m.exec_time_s = result.exec_time_s;
    m.ips = result.mean_ips;
    m.power_w = result.mean_power_w;
    metrics.push_back(std::move(m));
  }
  return metrics;
}

}  // namespace fedpower::core
