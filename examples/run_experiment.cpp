// Config-driven experiment runner: reproduce any paper scenario (or your
// own) from an INI file, no recompilation.
//
//   $ ./run_experiment configs/scenario2.ini
//   $ ./run_experiment configs/scenario2.ini fed.rounds=20   # CLI override
//
// Run without arguments to print the recognized keys and a sample config.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "fedpower.hpp"

namespace {

using namespace fedpower;

constexpr const char* kSampleConfig = R"(# FedPower experiment configuration
[run]
seed = 42
mode = both            ; federated | local | both
num_threads = 1        ; worker threads for local training; 0 = all cores
lazy_fleet = false     ; defer device construction to first selection
metrics_jsonl =        ; optional path for per-round JSONL metrics

[fed]
rounds = 100
steps_per_round = 100
aggregation = mean     ; mean | weighted | median | trimmed | krum | multi-krum
participation = 1.0    ; C: fraction of eligible clients drawn per round
min_participants = 1   ; floor on the per-round draw
sampling_seed = 0      ; participation stream seed
quorum = 1             ; min surviving uploads among this round's draw
deadline_s = 0.0       ; per-round latency budget per client; over-budget
                       ; participants are demoted to dropouts (0 = off)

[agent]
learning_rate = 0.005
tau_max = 0.9
tau_decay = 5e-4
tau_min = 0.01
replay_capacity = 4000
batch_size = 128
optimize_interval = 20

[power]
p_crit_w = 0.6
k_offset_w = 0.05

[workload]
; comma-separated SPLASH-2 app names per device; add device2, device3, ...
device0 = water-ns, water-sp
device1 = ocean, radix

[eval]
episode_intervals = 30
csv =                  ; optional path for per-round reward CSV

[checkpoint]
every_rounds = 0       ; snapshot cadence; 0 disables checkpointing
dir =                  ; rotation directory (required when every_rounds > 0)
keep = 3               ; snapshots retained in the rotation
resume_from =          ; snapshot file or rotation dir to resume from

[defense]
enabled = false        ; Byzantine screening + quarantine (sync or serve)
norm_clip = 2.5        ; clip updates above this multiple of the norm median
norm_screen = 6.0      ; reject updates above this multiple (>= norm_clip)
cosine_max_distance = 0.8
warmup_rounds = 3
quarantine_threshold = 0.5
fail_penalty = 0.25
pass_credit = 0.05
probation_rounds = 3

[serve]
enabled = false        ; route rounds through the sharded serve pipeline
workers = 1            ; shard worker threads (client mod workers)
queue_depth = 256      ; per-shard SPSC queue capacity (frames)
batch = 16             ; worker batched-dequeue burst size
mode = deterministic   ; deterministic | throughput (FedAsync merge;
                       ;   no [defense])
mixing_rate = 0.5      ; throughput mode: FedAsync alpha
staleness_power = 1.0  ; throughput mode: staleness discount exponent
idle_timeout_s = 0.0   ; TCP front end: reap idle connections (0 = off)

[faults]
attack = none          ; none | sign-flip | scale | stale-replay
attack_fraction = 0.0  ; ceil(fraction * N) highest-index devices attack
attack_scale = 25.0
stale_rounds = 5
start_round = 0
reward_scale = 1.0     ; training-reward poisoning on attacked devices
stuck_power_w = -1     ; >= 0 sticks attacked devices' power sensor there
frozen_counters = false
dvfs_stuck = false
transport_drop = 0.0   ; per-transfer drop probability (whole federation)
transport_delay = 0.0  ; per-transfer late-delivery probability
transport_delay_s = 0.05   ; latency each delayed transfer adds
transport_truncate = 0.0   ; per-transfer payload-damage probability
transport_disconnect = 0.0 ; per-transfer connection-death probability
transport_seed = 0

[chaos]
enabled = false        ; deterministic chaos schedule (DESIGN.md §13)
seed = 2026            ; chaos stream seed (replay contract)
leave_probability = 0.0    ; P(online client departs) per round
rejoin_probability = 0.5   ; P(offline client returns) per round
shock_probability = 0.0    ; P(one device's workload is shocked) per round
)";

std::vector<std::vector<sim::AppProfile>> parse_devices(
    const util::Config& config) {
  std::vector<std::vector<sim::AppProfile>> devices;
  for (std::size_t d = 0;; ++d) {
    const std::string key = "workload.device" + std::to_string(d);
    if (!config.has(key)) break;
    std::vector<sim::AppProfile> apps;
    for (const std::string& name : config.get_list(key)) {
      const auto app = sim::splash2_app(name);
      if (!app) {
        std::fprintf(stderr, "unknown application '%s' in %s\n",
                     name.c_str(), key.c_str());
        std::exit(1);
      }
      apps.push_back(*app);
    }
    if (apps.empty()) {
      std::fprintf(stderr, "%s lists no applications\n", key.c_str());
      std::exit(1);
    }
    devices.push_back(std::move(apps));
  }
  return devices;
}

fed::AggregationMode parse_aggregation(const std::string& name) {
  if (name == "mean") return fed::AggregationMode::kUnweightedMean;
  if (name == "weighted") return fed::AggregationMode::kSampleWeighted;
  if (name == "median") return fed::AggregationMode::kCoordinateMedian;
  if (name == "trimmed") return fed::AggregationMode::kTrimmedMean;
  if (name == "krum") return fed::AggregationMode::kKrum;
  if (name == "multi-krum") return fed::AggregationMode::kMultiKrum;
  throw std::invalid_argument(
      "config key 'fed.aggregation': unknown mode '" + name +
      "' (mean | weighted | median | trimmed | krum | multi-krum)");
}

fed::UploadAttack parse_attack(const std::string& name) {
  if (name == "none") return fed::UploadAttack::kNone;
  if (name == "sign-flip") return fed::UploadAttack::kSignFlip;
  if (name == "scale") return fed::UploadAttack::kScale;
  if (name == "stale-replay") return fed::UploadAttack::kStaleReplay;
  throw std::invalid_argument(
      "config key 'faults.attack': unknown attack '" + name +
      "' (none | sign-flip | scale | stale-replay)");
}

core::ExperimentConfig build_config(const util::Config& config) {
  core::ExperimentConfig experiment;
  experiment.seed =
      static_cast<std::uint64_t>(config.get_int("run.seed", 42));
  // Results are bit-identical for every value (see DESIGN.md §7); this
  // only trades wall-clock for cores.
  const long num_threads = config.get_int("run.num_threads", 1);
  if (num_threads < 0)
    throw std::invalid_argument(
        "config key 'run.num_threads': must be >= 0 (0 = all cores)");
  experiment.num_threads = static_cast<std::size_t>(num_threads);
  experiment.rounds =
      static_cast<std::size_t>(config.get_int("fed.rounds", 100));
  auto& controller = experiment.controller;
  controller.steps_per_round =
      static_cast<std::size_t>(config.get_int("fed.steps_per_round", 100));
  controller.agent.learning_rate =
      config.get_double("agent.learning_rate", 0.005);
  controller.agent.tau_max = config.get_double("agent.tau_max", 0.9);
  controller.agent.tau_decay = config.get_double("agent.tau_decay", 5e-4);
  controller.agent.tau_min = config.get_double("agent.tau_min", 0.01);
  controller.agent.replay_capacity = static_cast<std::size_t>(
      config.get_int("agent.replay_capacity", 4000));
  controller.agent.batch_size =
      static_cast<std::size_t>(config.get_int("agent.batch_size", 128));
  controller.agent.optimize_interval = static_cast<std::size_t>(
      config.get_int("agent.optimize_interval", 20));
  controller.p_crit_w = config.get_double("power.p_crit_w", 0.6);
  controller.k_offset_w = config.get_double("power.k_offset_w", 0.05);
  experiment.eval.episode_intervals = static_cast<std::size_t>(
      config.get_int("eval.episode_intervals", 30));
  const long every_rounds = config.get_int("checkpoint.every_rounds", 0);
  if (every_rounds < 0)
    throw std::invalid_argument(
        "config key 'checkpoint.every_rounds': must be >= 0 (0 = disabled)");
  experiment.checkpoint.every_rounds =
      static_cast<std::size_t>(every_rounds);
  experiment.checkpoint.dir = config.get_string("checkpoint.dir");
  const long keep = config.get_int("checkpoint.keep", 3);
  if (keep < 1)
    throw std::invalid_argument(
        "config key 'checkpoint.keep': must be >= 1");
  experiment.checkpoint.keep = static_cast<std::size_t>(keep);
  experiment.checkpoint.resume_from =
      config.get_string("checkpoint.resume_from");
  experiment.aggregation =
      parse_aggregation(config.get_string("fed.aggregation", "mean"));
  experiment.sampling.fraction =
      config.get_double("fed.participation", 1.0);
  if (experiment.sampling.fraction <= 0.0 ||
      experiment.sampling.fraction > 1.0)
    throw std::invalid_argument(
        "config key 'fed.participation': must be in (0, 1]");
  const long min_participants = config.get_int("fed.min_participants", 1);
  if (min_participants < 1)
    throw std::invalid_argument(
        "config key 'fed.min_participants': must be >= 1");
  experiment.sampling.min_clients =
      static_cast<std::size_t>(min_participants);
  experiment.sampling.seed = static_cast<std::uint64_t>(
      config.get_int("fed.sampling_seed", 0));
  const long quorum = config.get_int("fed.quorum", 1);
  if (quorum < 1)
    throw std::invalid_argument("config key 'fed.quorum': must be >= 1");
  experiment.quorum = static_cast<std::size_t>(quorum);
  experiment.lazy_fleet = config.get_bool("run.lazy_fleet", false);

  auto& defense = experiment.defense;
  defense.enabled = config.get_bool("defense.enabled", false);
  defense.norm_clip_multiplier = config.get_double("defense.norm_clip", 2.5);
  defense.norm_screen_multiplier =
      config.get_double("defense.norm_screen", 6.0);
  defense.cosine_max_distance =
      config.get_double("defense.cosine_max_distance", 0.8);
  defense.warmup_rounds = static_cast<std::size_t>(
      config.get_int("defense.warmup_rounds", 3));
  defense.quarantine_threshold =
      config.get_double("defense.quarantine_threshold", 0.5);
  defense.fail_penalty = config.get_double("defense.fail_penalty", 0.25);
  defense.pass_credit = config.get_double("defense.pass_credit", 0.05);
  defense.probation_rounds = static_cast<std::size_t>(
      config.get_int("defense.probation_rounds", 3));

  auto& serve = experiment.serve;
  serve.enabled = config.get_bool("serve.enabled", false);
  const long serve_workers = config.get_int("serve.workers", 1);
  if (serve_workers < 1)
    throw std::invalid_argument("config key 'serve.workers': must be >= 1");
  serve.workers = static_cast<std::size_t>(serve_workers);
  const long serve_depth = config.get_int("serve.queue_depth", 256);
  if (serve_depth < 1)
    throw std::invalid_argument(
        "config key 'serve.queue_depth': must be >= 1");
  serve.queue_depth = static_cast<std::size_t>(serve_depth);
  const long serve_batch = config.get_int("serve.batch", 16);
  if (serve_batch < 1)
    throw std::invalid_argument("config key 'serve.batch': must be >= 1");
  serve.batch_max = static_cast<std::size_t>(serve_batch);
  const std::string serve_mode =
      config.get_string("serve.mode", "deterministic");
  if (serve_mode == "deterministic")
    serve.deterministic = true;
  else if (serve_mode == "throughput")
    serve.deterministic = false;
  else
    throw std::invalid_argument(
        "config key 'serve.mode': unknown mode '" + serve_mode +
        "' (deterministic | throughput)");
  serve.mixing_rate = config.get_double("serve.mixing_rate", 0.5);
  if (serve.mixing_rate <= 0.0 || serve.mixing_rate > 1.0)
    throw std::invalid_argument(
        "config key 'serve.mixing_rate': must be in (0, 1]");
  serve.staleness_power = config.get_double("serve.staleness_power", 1.0);
  if (serve.staleness_power < 0.0)
    throw std::invalid_argument(
        "config key 'serve.staleness_power': must be >= 0");
  serve.idle_timeout_s = config.get_double("serve.idle_timeout_s", 0.0);
  if (serve.idle_timeout_s < 0.0)
    throw std::invalid_argument(
        "config key 'serve.idle_timeout_s': must be >= 0 (0 = disabled)");

  auto& faults = experiment.faults;
  faults.attack = parse_attack(config.get_string("faults.attack", "none"));
  faults.fraction = config.get_double("faults.attack_fraction", 0.0);
  if (faults.fraction < 0.0 || faults.fraction > 1.0)
    throw std::invalid_argument(
        "config key 'faults.attack_fraction': must be in [0, 1]");
  faults.attack_scale = config.get_double("faults.attack_scale", 25.0);
  faults.stale_rounds = static_cast<std::size_t>(
      config.get_int("faults.stale_rounds", 5));
  faults.start_round = static_cast<std::size_t>(
      config.get_int("faults.start_round", 0));
  faults.reward_poison_scale =
      config.get_double("faults.reward_scale", 1.0);
  const double stuck_power = config.get_double("faults.stuck_power_w", -1.0);
  if (stuck_power >= 0.0) {
    faults.hardware.stuck_power_sensor = true;
    faults.hardware.stuck_power_w = stuck_power;
  }
  faults.hardware.frozen_counters =
      config.get_bool("faults.frozen_counters", false);
  faults.hardware.dvfs_stuck = config.get_bool("faults.dvfs_stuck", false);
  faults.transport.drop_probability =
      config.get_double("faults.transport_drop", 0.0);
  faults.transport.delay_probability =
      config.get_double("faults.transport_delay", 0.0);
  faults.transport.injected_delay_s =
      config.get_double("faults.transport_delay_s", 0.05);
  faults.transport.truncate_probability =
      config.get_double("faults.transport_truncate", 0.0);
  faults.transport.disconnect_probability =
      config.get_double("faults.transport_disconnect", 0.0);
  faults.transport.seed = static_cast<std::uint64_t>(
      config.get_int("faults.transport_seed", 0));

  experiment.deadline_s = config.get_double("fed.deadline_s", 0.0);
  if (experiment.deadline_s < 0.0)
    throw std::invalid_argument(
        "config key 'fed.deadline_s': must be >= 0 (0 = disabled)");
  experiment.metrics_jsonl = config.get_string("run.metrics_jsonl");

  auto& chaos = experiment.chaos;
  chaos.enabled = config.get_bool("chaos.enabled", false);
  chaos.seed =
      static_cast<std::uint64_t>(config.get_int("chaos.seed", 2026));
  chaos.leave_probability =
      config.get_double("chaos.leave_probability", 0.0);
  chaos.rejoin_probability =
      config.get_double("chaos.rejoin_probability", 0.5);
  chaos.shock_probability =
      config.get_double("chaos.shock_probability", 0.0);
  if (chaos.leave_probability < 0.0 || chaos.leave_probability > 1.0 ||
      chaos.rejoin_probability < 0.0 || chaos.rejoin_probability > 1.0 ||
      chaos.shock_probability < 0.0 || chaos.shock_probability > 1.0)
    throw std::invalid_argument(
        "config section '[chaos]': probabilities must be in [0, 1]");
  return experiment;
}

void report(const char* label, const std::vector<core::RoundCurve>& devices) {
  const core::CurveSummary summary = core::summarize(devices);
  std::printf("%-10s mean reward %.3f (min %.3f) | mean power %.3f W | "
              "violation rate %.3f\n",
              label, summary.mean_reward, summary.min_reward,
              summary.mean_power_w, summary.violation_rate);
}

void report_robustness(const core::RobustnessReport& robustness) {
  if (!robustness.compromised.empty()) {
    std::string list;
    for (const std::size_t d : robustness.compromised) {
      if (!list.empty()) list += ", ";
      list += std::to_string(d);
    }
    std::printf("           compromised devices: %s\n", list.c_str());
  }
  if (!robustness.final_reputation.empty()) {
    std::printf("           defense: screened %zu upload(s), clipped %zu, "
                "max quarantined %zu, readmitted %zu\n",
                robustness.total_screened, robustness.total_clipped,
                robustness.max_quarantined, robustness.total_readmitted);
    std::string reps;
    for (const double r : robustness.final_reputation) {
      if (!reps.empty()) reps += ", ";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.2f", r);
      reps += buf;
    }
    std::printf("           final reputation: [%s]\n", reps.c_str());
  }
  const fed::FaultInjectionStats& t = robustness.transport;
  if (t.attempted > 0 && t.delivered < t.attempted) {
    std::printf("           transport faults: %zu/%zu transfers delivered "
                "(%zu drops, %zu disconnects, %zu truncated, %zu outage "
                "failures)\n",
                t.delivered, t.attempted, t.drops, t.disconnects,
                t.truncations, t.outage_failures);
  }
  if (robustness.total_stragglers > 0)
    std::printf("           deadline: %zu straggler demotion(s)\n",
                robustness.total_stragglers);
  if (robustness.aborted_rounds > 0)
    std::printf("           quorum: %llu round abort(s), each retried\n",
                static_cast<unsigned long long>(robustness.aborted_rounds));
  const chaos::ChaosStats& c = robustness.chaos;
  if (c.rounds > 0)
    std::printf("           chaos: %llu departure(s), %llu rejoin(s), "
                "%llu shock(s), peak %llu offline\n",
                static_cast<unsigned long long>(c.departures),
                static_cast<unsigned long long>(c.rejoins),
                static_cast<unsigned long long>(c.shocks),
                static_cast<unsigned long long>(c.max_offline));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf("usage: %s <config.ini> [key=value ...]\n\nsample config:\n%s",
                argv[0], kSampleConfig);
    return 0;
  }

  util::Config config;
  try {
    config = util::Config::load(argv[1]);
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr, "override '%s' is not key=value\n", arg.c_str());
        return 1;
      }
      config.set(arg.substr(0, eq), arg.substr(eq + 1));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  const auto devices = parse_devices(config);
  if (devices.empty()) {
    std::fprintf(stderr, "config defines no [workload] device0 entry\n");
    return 1;
  }
  const core::ExperimentConfig experiment = build_config(config);
  const auto eval_apps = sim::splash2_suite();

  std::printf("devices: %zu | rounds: %zu x %zu steps | P_crit %.2f W | "
              "seed %llu\n\n",
              devices.size(), experiment.rounds,
              experiment.controller.steps_per_round,
              experiment.controller.p_crit_w,
              static_cast<unsigned long long>(experiment.seed));

  const std::string mode = config.get_string("run.mode", "both");
  // A snapshot captures ONE run loop; with mode=both the federated and
  // local runs would fight over the same rotation directory and resume
  // source, so checkpointing requires picking a single mode.
  if (mode == "both" && (experiment.checkpoint.every_rounds > 0 ||
                         !experiment.checkpoint.resume_from.empty())) {
    std::fprintf(stderr,
                 "checkpointing requires run.mode=federated or "
                 "run.mode=local (not both)\n");
    return 1;
  }
  std::vector<core::RoundCurve> fed_curves;
  if (mode == "federated" || mode == "both") {
    const auto fed = core::run_federated(experiment, devices, eval_apps,
                                         true);
    report("federated", fed.devices);
    std::printf("           traffic %.1f kB total, %.2f kB per transfer\n",
                static_cast<double>(fed.traffic.total_bytes()) / 1000.0,
                fed.traffic.mean_transfer_bytes() / 1000.0);
    report_robustness(fed.robustness);
    fed_curves = fed.devices;

    const std::string csv_path = config.get_string("eval.csv");
    if (!csv_path.empty()) {
      util::CsvWriter csv(csv_path);
      std::vector<std::string> header = {"round"};
      for (std::size_t d = 0; d < fed.devices.size(); ++d)
        header.push_back("device" + std::to_string(d));
      csv.write_row(header);
      for (std::size_t r = 0; r < experiment.rounds; ++r) {
        std::vector<std::string> row = {std::to_string(r + 1)};
        for (const auto& device : fed.devices)
          row.push_back(util::CsvWriter::format(device.reward[r]));
        csv.write_row(row);
      }
      std::printf("           per-round rewards -> %s\n", csv_path.c_str());
    }
  }
  if (mode == "local" || mode == "both") {
    const auto local = core::run_local_only(experiment, devices, eval_apps,
                                            true);
    report("local-only", local.devices);
  }
  return 0;
}
