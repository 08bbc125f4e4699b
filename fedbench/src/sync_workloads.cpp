// paper_sync and fleet_lazy: end-to-end runs through core::run_federated,
// and a traced run that rebuilds the same rounds from public pieces
// (FleetRuntime, FederatedAveraging, Evaluator, SnapshotRotation) with
// timing decorators over fed::FederatedClient, fed::Transport and
// fed::ModelCodec.
#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "affinity.hpp"
#include "calibrate.hpp"
#include "ckpt/rotation.hpp"
#include "core/scenario.hpp"
#include "fed/federation.hpp"
#include "layers.hpp"
#include "nn/mlp.hpp"
#include "runtime/fleet_runtime.hpp"
#include "sim/splash2.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace fedbench {
namespace {

using namespace fedpower;

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// A repetition's own time: its wall time minus the time its thread was
/// runnable but waited for a CPU that other threads held. Other processes
/// on a shared host lengthen wall time; they do not lengthen this.
double own_s(const SyncOutcome& o) { return o.wall_s - o.wait_s; }

double mean_of_last_tenth(const std::vector<double>& curve) {
  if (curve.empty()) return 0.0;
  const std::size_t n = std::max<std::size_t>(1, curve.size() / 10);
  double sum = 0.0;
  for (std::size_t i = curve.size() - n; i < curve.size(); ++i) sum += curve[i];
  return sum / static_cast<double>(n);
}

/// The evaluation seed run_federated gives episode (round, device).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                    (b * 0xbf58476d1ce4e5b9ULL);
  return util::splitmix64(s);
}

/// The evaluator run_federated builds from an ExperimentConfig.
core::Evaluator make_evaluator(const core::ExperimentConfig& config) {
  core::EvalConfig eval = config.eval;
  eval.processor = config.processor;
  eval.processor.power.variation = 1.0;
  eval.dvfs_interval_s = config.controller.dvfs_interval_s;
  return core::Evaluator(config.controller, eval);
}

// --- decorators for the traced run ---------------------------------------

/// Where the round is, so decorators can name their spans and measure the
/// gaps between boundaries (server-side screening, aggregation).
struct RoundProbe {
  enum class Phase { kBroadcast, kTrain, kUpload };
  Phase phase = Phase::kBroadcast;
  std::int64_t round = -1;
  std::int64_t last_decode_end = 0;  ///< end of the latest upload decode

  void begin_round(std::int64_t r) {
    phase = Phase::kBroadcast;
    round = r;
    last_decode_end = 0;
  }
};

class TracedCodec final : public fed::ModelCodec {
 public:
  TracedCodec(const fed::ModelCodec& inner, RoundProbe& probe)
      : inner_(inner), probe_(probe) {}

  std::vector<std::uint8_t> encode(
      std::span<const double> params) const override {
    const ScopedSpan span(uploading() ? "upload.encode" : "broadcast.encode",
                          probe_.round);
    return inner_.encode(params);
  }
  std::vector<double> decode(
      std::span<const std::uint8_t> payload) const override {
    std::vector<double> params;
    {
      const ScopedSpan span(uploading() ? "upload.decode" : "broadcast.decode",
                            probe_.round);
      params = inner_.decode(payload);
    }
    if (uploading()) probe_.last_decode_end = now_ns();
    return params;
  }
  std::size_t payload_size(std::size_t param_count) const override {
    return inner_.payload_size(param_count);
  }
  std::string name() const override { return inner_.name(); }

 private:
  bool uploading() const {
    return probe_.phase == RoundProbe::Phase::kUpload;
  }

  const fed::ModelCodec& inner_;
  RoundProbe& probe_;
};

class TracedTransport final : public fed::Transport {
 public:
  TracedTransport(fed::Transport& inner, const RoundProbe& probe)
      : inner_(inner), probe_(probe) {}

  std::vector<std::uint8_t> transfer(
      fed::Direction direction, std::vector<std::uint8_t> payload) override {
    const ScopedSpan span(direction == fed::Direction::kUplink
                              ? "upload.transfer"
                              : "broadcast.transfer",
                          probe_.round);
    return inner_.transfer(direction, std::move(payload));
  }
  const fed::TrafficStats& stats() const noexcept override {
    return inner_.stats();
  }
  double cumulative_latency_s() const noexcept override {
    return inner_.cumulative_latency_s();
  }

 private:
  fed::Transport& inner_;
  const RoundProbe& probe_;
};

class TracedClient final : public fed::FederatedClient {
 public:
  TracedClient(fed::FederatedClient* inner, runtime::FleetRuntime& fleet,
               std::size_t device, RoundProbe& probe)
      : inner_(inner), fleet_(fleet), device_(device), probe_(probe) {}

  void receive_global(std::span<const double> params) override {
    if (!fleet_.hot(device_)) {
      // Lazy fleets materialize a participant on its first touch; make
      // that touch a direct, separately timed call.
      const ScopedSpan span("runtime.hydrate", probe_.round);
      fleet_.hydrate(device_);
    }
    const ScopedSpan span("broadcast.receive", probe_.round);
    inner_->receive_global(params);
  }
  std::vector<double> local_parameters() const override {
    if (probe_.phase == RoundProbe::Phase::kTrain)
      probe_.phase = RoundProbe::Phase::kUpload;
    if (probe_.last_decode_end != 0)
      Tracer::instance().add("upload.screen", probe_.last_decode_end,
                             now_ns(), probe_.round);
    const ScopedSpan span("upload.local_params", probe_.round);
    return inner_->local_parameters();
  }
  void run_local_round() override {
    probe_.phase = RoundProbe::Phase::kTrain;
    const ScopedSpan span("train", probe_.round);
    inner_->run_local_round();
  }
  std::size_t local_sample_count() const override {
    return inner_->local_sample_count();
  }

 private:
  fed::FederatedClient* inner_;
  runtime::FleetRuntime& fleet_;
  std::size_t device_;
  RoundProbe& probe_;
};

void save_curve(ckpt::Writer& out, const core::RoundCurve& curve) {
  out.vec_f64(curve.reward);
  out.vec_f64(curve.mean_freq_mhz);
  out.vec_f64(curve.stddev_freq_mhz);
  out.vec_f64(curve.mean_power_w);
  out.vec_f64(curve.violation_rate);
}

void record_eval(core::RoundCurve& curve, const core::EvalResult& result) {
  curve.reward.push_back(result.mean_reward);
  curve.mean_freq_mhz.push_back(result.mean_freq_mhz);
  curve.stddev_freq_mhz.push_back(result.stddev_freq_mhz);
  curve.mean_power_w.push_back(result.mean_power_w);
  curve.violation_rate.push_back(result.violation_rate);
}

struct TracedOutcome {
  SyncOutcome outcome;
  std::size_t max_hot = 0;
  std::size_t snapshot_bytes = 0;
};

/// The rounds of run_federated, rebuilt from public pieces with every
/// layer boundary timed. Same construction order and calls, so the
/// committed model must be bit-identical to run_federated's.
/// Span round indices start at round_base, so repetitions stay apart.
TracedOutcome run_traced(const SyncSpec& spec, const std::string& ckpt_dir,
                         std::int64_t round_base) {
  const core::ExperimentConfig& config = spec.config;
  TracedOutcome traced;
  SyncOutcome& out = traced.outcome;
  const std::int64_t start = now_ns();

  runtime::FleetRuntime fleet({config.controller}, config.processor,
                              spec.device_apps, config.seed,
                              runtime::FleetOptions{1, config.lazy_fleet});
  RoundProbe probe;
  fed::InProcessTransport link;
  TracedTransport transport(link, probe);
  TracedCodec codec(fed::Float32Codec::instance(), probe);
  std::vector<std::unique_ptr<TracedClient>> decorated;
  std::vector<fed::FederatedClient*> clients;
  const std::vector<fed::FederatedClient*> inner = fleet.clients();
  decorated.reserve(inner.size());
  clients.reserve(inner.size());
  for (std::size_t d = 0; d < inner.size(); ++d) {
    decorated.push_back(
        std::make_unique<TracedClient>(inner[d], fleet, d, probe));
    clients.push_back(decorated.back().get());
  }
  fed::FederatedAveraging server(clients, &transport, config.aggregation,
                                 &codec);
  server.set_local_executor(fleet.executor());
  server.enable_defense(config.defense);
  server.set_sampling(config.sampling);
  server.set_quorum(config.quorum);
  server.initialize(fleet.controller(0).local_parameters());

  const core::Evaluator evaluator = make_evaluator(config);
  std::vector<core::RoundCurve> device_curves(fleet.size());
  core::RoundCurve fleet_curve;
  std::optional<ckpt::SnapshotRotation> rotation;
  if (config.checkpoint.every_rounds > 0)
    rotation.emplace(ckpt_dir, config.checkpoint.keep);

  Tracer& tracer = Tracer::instance();
  for (std::size_t round = 0; round < config.rounds; ++round) {
    const auto r = round_base + static_cast<std::int64_t>(round);
    const ScopedSpan round_span("round", r);
    std::optional<fed::RoundResult> committed;
    while (!committed) {
      probe.begin_round(r);
      const ScopedSpan run_span("fed.run_round", r);
      try {
        committed = server.run_round();
      } catch (const fed::QuorumError&) {
        ++out.aborted;
      }
      if (probe.last_decode_end != 0)
        tracer.add("aggregate", probe.last_decode_end, now_ns(), r);
    }
    if (spec.eval_each_round) {
      const ScopedSpan eval_span("eval", r);
      const sim::AppProfile& app =
          spec.eval_apps[round % spec.eval_apps.size()];
      std::vector<core::EvalResult> evals(fleet.size());
      for (std::size_t d = 0; d < fleet.size(); ++d) {
        const core::PolicyFn policy =
            evaluator.neural_policy(server.global_model());
        const ScopedSpan episode("eval.episode", r);
        evals[d] = evaluator.run_episode(policy, app,
                                         mix_seed(config.seed, round, d));
      }
      util::RunningStats reward, freq, freq_stddev, power, violations;
      for (std::size_t d = 0; d < evals.size(); ++d) {
        record_eval(device_curves[d], evals[d]);
        reward.add(evals[d].mean_reward);
        freq.add(evals[d].mean_freq_mhz);
        freq_stddev.add(evals[d].stddev_freq_mhz);
        power.add(evals[d].mean_power_w);
        violations.add(evals[d].violation_rate);
      }
      fleet_curve.reward.push_back(reward.mean());
      fleet_curve.mean_freq_mhz.push_back(freq.mean());
      fleet_curve.stddev_freq_mhz.push_back(freq_stddev.mean());
      fleet_curve.mean_power_w.push_back(power.mean());
      fleet_curve.violation_rate.push_back(violations.mean());
    }
    traced.max_hot = std::max(traced.max_hot, fleet.hot_count());
    if (config.lazy_fleet) {
      const ScopedSpan span("runtime.dehydrate", r);
      fleet.dehydrate_inactive(committed->participants);
    }
    if (rotation && (round + 1) % config.checkpoint.every_rounds == 0) {
      // The FEXP layout of run_federated's clean-run snapshot.
      const ScopedSpan span("ckpt", r);
      ckpt::Writer snapshot;
      {
        const ScopedSpan serialize("ckpt.serialize", r);
        ckpt::write_tag(snapshot, ckpt::Tag{'F', 'E', 'X', 'P'});
        snapshot.u64(round + 1);
        fleet.save_state(snapshot);
        server.save_state(snapshot);
        snapshot.u64(device_curves.size());
        for (const core::RoundCurve& curve : device_curves)
          save_curve(snapshot, curve);
        save_curve(snapshot, fleet_curve);
        snapshot.u64(round + 1);
        for (std::size_t i = 0; i <= round; ++i)
          snapshot.str(spec.eval_apps[i % spec.eval_apps.size()].name);
        const fed::TrafficStats& t = link.stats();
        snapshot.u64(t.uplink_transfers);
        snapshot.u64(t.uplink_bytes);
        snapshot.u64(t.downlink_transfers);
        snapshot.u64(t.downlink_bytes);
        snapshot.u64(t.retries);
        snapshot.f64(t.total_latency_s);
      }
      {
        const ScopedSpan write("ckpt.write", r);
        rotation->save(snapshot.data());
      }
      traced.snapshot_bytes = snapshot.size();
    }
    ++out.rounds;
  }
  out.wall_s = seconds_since(start);
  out.digest = digest(server.global_model());
  out.final_reward = mean_of_last_tenth(fleet_curve.reward);
  out.traffic = link.stats();
  return traced;
}

// --- metrics ----------------------------------------------------------------

/// Per round, the summed duration of the named spans divided by how many
/// times `per` occurred that round; median over rounds.
double per_event_us(const SpanIndex& index,
                    std::initializer_list<const char*> names,
                    const char* per) {
  std::map<std::int64_t, double> total_us;
  std::map<std::int64_t, double> events;
  for (const char* name : names)
    for (const Span* s : index.named(name))
      total_us[s->round] += static_cast<double>(s->duration_ns()) / 1e3;
  for (const Span* s : index.named(per)) events[s->round] += 1.0;
  std::vector<double> values;
  for (const auto& [round, us] : total_us)
    if (events[round] > 0) values.push_back(us / events[round]);
  return median(values);
}

void layer_metrics_from_spans(const SpanIndex& index,
                              const std::vector<TracedOutcome>& reps,
                              Result& result) {
  double rounds = 0.0;
  std::size_t max_hot = 0;
  std::size_t snapshot_bytes = 0;
  for (const TracedOutcome& rep : reps) {
    rounds += static_cast<double>(rep.outcome.rounds);
    max_hot = std::max(max_hot, rep.max_hot);
    snapshot_bytes = std::max(snapshot_bytes, rep.snapshot_bytes);
  }
  const auto count = [&](const char* name) {
    return static_cast<double>(index.named(name).size());
  };
  result.set("core.train_ms_per_round",
             median(index.per_round_total_ms("train")));
  result.set("core.eval_ms_per_round",
             median(index.per_round_total_ms("eval")));
  result.set("core.eval_episode_us",
             median(index.durations_us({"eval.episode"})));
  result.set("runtime.hydrate_us",
             median(index.durations_us({"runtime.hydrate"})));
  result.set("runtime.hydrations_per_round", count("runtime.hydrate") / rounds);
  result.set("runtime.dehydrate_ms_per_round",
             median(index.per_round_total_ms("runtime.dehydrate")));
  result.set("runtime.hot_devices", static_cast<double>(max_hot));
  result.set("fed.broadcast_us",
             per_event_us(index,
                          {"broadcast.transfer", "broadcast.decode",
                           "broadcast.receive"},
                          "broadcast.transfer"));
  result.set("fed.local_params_us",
             median(index.durations_us({"upload.local_params"})));
  result.set("fed.encode_us",
             median(index.durations_us({"upload.encode", "broadcast.encode"})));
  result.set("fed.decode_us",
             median(index.durations_us({"upload.decode", "broadcast.decode"})));
  result.set("fed.transfer_us",
             median(index.durations_us(
                 {"upload.transfer", "broadcast.transfer"})));
  result.set("fed.transfers_per_round",
             (count("upload.transfer") + count("broadcast.transfer")) / rounds);
  std::vector<double> self_ms;
  for (const Span* s : index.named("fed.run_round"))
    self_ms.push_back(static_cast<double>(index.self_ns(*s)) / 1e6);
  result.set("fed.round_self_ms", median(self_ms));
  result.set("fed.aggregate_ms",
             median(index.durations_us({"aggregate"})) / 1e3);
  result.set("fed.defense_screen_us",
             median(index.durations_us({"upload.screen"})));
  result.set("fed.bytes_per_transfer",
             reps.front().outcome.traffic.mean_transfer_bytes());
  result.set("ckpt.serialize_ms",
             median(index.durations_us({"ckpt.serialize"})) / 1e3);
  result.set("ckpt.write_ms", median(index.durations_us({"ckpt.write"})) / 1e3);
  result.set("ckpt.snapshot_kib",
             static_cast<double>(snapshot_bytes) / 1024.0);
  double ckpt_ms = 0.0;
  for (const double us : index.durations_us({"ckpt"})) ckpt_ms += us / 1e3;
  result.set("ckpt.ms_per_round", ckpt_ms / rounds);

  result.set("trace.accounted_pct", index.accounted_pct());

  // Self time per round by span name, largest first: where a round goes.
  std::map<std::string, double> self_by_name;
  for (const Span& s : index.spans)
    if (s.round >= 0)
      self_by_name[s.name] += static_cast<double>(index.self_ns(s)) / 1e6;
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, ms] : self_by_name)
    ranked.emplace_back(ms / rounds, name);
  std::sort(ranked.rbegin(), ranked.rend());
  for (std::size_t i = 0; i < ranked.size() && i < 8; ++i)
    result.note("self_ms_per_round." + ranked[i].second, ranked[i].first,
                "ms");
}

void zero_serve_layers(Result& result) {
  for (const char* name :
       {"serve.arrival_wait_ms", "serve.commit_us", "serve.client_codec_us",
        "serve.uplink_p50_us", "serve.uplink_p90_us", "serve.uplink_p99_us",
        "serve.fetch_p50_us", "serve.fetch_p90_us", "serve.fetch_p99_us",
        "serve.deferred", "serve.duplicates", "serve.reconnects",
        "serve.protocol_errors"})
    result.set(name, 0.0);
}

// --- runs -------------------------------------------------------------------

/// Median own time (as own_s) of run_federated on the same config with
/// rounds = 0: construction to first round. Sampled for about `budget_s`
/// seconds (at least 3, at most 2000 samples), each sample on the next CPU,
/// so every sample starts with cold caches, as a fresh process does.
double measure_setup_s(const SyncSpec& spec, double budget_s) {
  core::ExperimentConfig setup = spec.config;
  setup.rounds = 0;
  std::vector<double> samples;
  const std::vector<int>& cpus = allowed_cpus();
  const std::int64_t start = now_ns();
  while (samples.size() < 3 ||
         (samples.size() < 2000 && seconds_since(start) < budget_s)) {
    pin_to(cpus[samples.size() % cpus.size()]);
    const std::int64_t wait0 = cpu_wait_ns();
    const std::int64_t t0 = now_ns();
    (void)core::run_federated(setup, spec.device_apps, spec.eval_apps,
                              spec.eval_each_round);
    const double wall_s = seconds_since(t0);
    samples.push_back(wall_s -
                      static_cast<double>(cpu_wait_ns() - wait0) / 1e9);
  }
  return median(samples);
}

/// Output checks every repetition must pass.
void check_outcome(const SyncSpec& spec, const SyncOutcome& o,
                   const std::string& label, Result& result) {
  result.check(o.rounds == spec.config.rounds,
               label + ": committed " + std::to_string(o.rounds) + " of " +
                   std::to_string(spec.config.rounds) + " rounds");
  result.check(o.aborted == 0,
               label + ": " + std::to_string(o.aborted) + " aborted rounds");
  const rl::NeuralAgentConfig& agent = spec.config.controller.agent;
  util::Rng rng(0);
  const std::size_t params =
      nn::make_mlp(agent.state_dim, agent.hidden_sizes, agent.action_count, rng)
          .param_count();
  const std::size_t payload =
      fed::Float32Codec::instance().payload_size(params);
  result.check(o.traffic.total_bytes() == o.traffic.total_transfers() * payload,
               label + ": every transfer carries one " +
                   std::to_string(payload) + "-byte float32 model (" +
                   std::to_string(params) + " params)");
}

}  // namespace

SyncSpec paper_sync_spec(std::uint64_t seed, std::size_t rounds,
                         const std::string& ckpt_dir) {
  SyncSpec spec;
  spec.config.seed = seed;
  spec.config.rounds = rounds;
  spec.config.checkpoint.every_rounds = 50;
  spec.config.checkpoint.keep = 3;
  spec.config.checkpoint.dir = ckpt_dir;
  spec.device_apps = core::resolve(core::table2_scenarios().front());
  spec.eval_apps = sim::splash2_suite();
  spec.eval_each_round = true;
  return spec;
}

SyncSpec fleet_lazy_spec(std::uint64_t seed, std::size_t rounds,
                         std::size_t devices) {
  SyncSpec spec;
  spec.config.seed = seed;
  spec.config.rounds = rounds;
  spec.config.controller.steps_per_round = 4;
  spec.config.sampling.fraction = 0.01;
  spec.config.sampling.seed = seed ^ 0x5a17ULL;
  spec.config.lazy_fleet = true;
  spec.config.defense.enabled = true;
  const std::vector<sim::AppProfile> suite = sim::splash2_suite();
  spec.device_apps.resize(devices);
  for (std::size_t d = 0; d < devices; ++d)
    spec.device_apps[d].push_back(suite[d % suite.size()]);
  return spec;
}

SyncOutcome run_federated_once(const SyncSpec& spec) {
  return run_federated_once(spec, spec.config);
}

SyncOutcome run_federated_once(const SyncSpec& spec,
                               const core::ExperimentConfig& config) {
  const std::int64_t wait0 = cpu_wait_ns();
  const std::int64_t t0 = now_ns();
  const core::FederatedRunResult run = core::run_federated(
      config, spec.device_apps, spec.eval_apps, spec.eval_each_round);
  SyncOutcome out;
  out.wall_s = seconds_since(t0);
  out.wait_s = static_cast<double>(cpu_wait_ns() - wait0) / 1e9;
  out.digest = digest(run.global_params);
  out.rounds = run.robustness.screened_per_round.size();
  out.aborted = run.robustness.aborted_rounds;
  out.final_reward = mean_of_last_tenth(run.fleet.reward);
  out.traffic = run.traffic;
  return out;
}

int run_sync_workload(const SyncSpec& spec, const RunOptions& options) {
  Result result;
  const double setup_s = measure_setup_s(spec, 0.5);
  const std::size_t steps = spec.config.controller.steps_per_round;
  const double rounds = static_cast<double>(spec.config.rounds);

  if (!options.trace) {
    // One single-threaded replica of the workload per CPU (at most 4),
    // each pinned to its CPU, all running at once; whole repetitions while
    // the next one is expected to end within the window. After each
    // repetition the replica calibrates its CPU, and the repetition's own
    // time is scaled to the reference CPU speed by that calibration.
    const std::vector<int>& cpus = allowed_cpus();
    const std::size_t replicas = std::min<std::size_t>(cpus.size(), 4);
    std::vector<std::vector<SyncOutcome>> per_replica(replicas);
    std::vector<std::thread> threads;
    const std::int64_t start = now_ns();
    for (std::size_t k = 0; k < replicas; ++k)
      threads.emplace_back([&, k] {
        pin_to(cpus[k]);
        core::ExperimentConfig config = spec.config;
        config.checkpoint.dir += "/replica-" + std::to_string(k);
        std::vector<double> walls;
        do {
          per_replica[k].push_back(run_federated_once(spec, config));
          per_replica[k].back().calibration_s = calibration_s();
          walls.push_back(per_replica[k].back().wall_s);
        } while (seconds_since(start) + median(walls) <= options.seconds);
      });
    for (std::thread& t : threads) t.join();
    std::vector<SyncOutcome> reps;
    std::vector<double> loop_s;       // at the reference CPU speed
    std::vector<double> wall_loop_s;  // as the wall clock read
    std::vector<double> calibration;
    for (const auto& list : per_replica)
      for (const SyncOutcome& o : list) {
        reps.push_back(o);
        loop_s.push_back(std::max(
            at_reference_speed(own_s(o) - setup_s, o.calibration_s), 1e-9));
        wall_loop_s.push_back(std::max(o.wall_s - setup_s, 1e-9));
        calibration.push_back(o.calibration_s);
      }
    for (std::size_t i = 0; i < reps.size(); ++i) {
      const SyncOutcome& o = reps[i];
      check_outcome(spec, o, "rep " + std::to_string(i), result);
      result.check(o.digest == reps.front().digest &&
                       o.final_reward == reps.front().final_reward,
                   "rep " + std::to_string(i) +
                       ": same committed-model digest and final_reward as "
                       "rep 0");
      result.attempted += spec.config.rounds + o.aborted;
      result.failed += o.aborted + (spec.config.rounds - std::min(
                                        spec.config.rounds, o.rounds));
    }
    const SyncOutcome& first = reps.front();
    const double uplinks = static_cast<double>(first.traffic.uplink_transfers);
    const double rep_s = median(loop_s);
    result.set("setup_s", setup_s);
    result.set("rounds_per_s", rounds / rep_s);
    result.set("uplinks_per_s", uplinks / rep_s);
    result.set("wire_kib_per_round",
               static_cast<double>(first.traffic.total_bytes()) / rounds /
                   1024.0);
    result.set("peak_rss_mib", peak_rss_mib());
    result.note("repetitions", static_cast<double>(reps.size()), "");
    result.note("replicas", static_cast<double>(replicas), "");
    result.note("calibration_ms", median(calibration) * 1e3, "ms");
    result.note("wall_rounds_per_s", rounds / median(wall_loop_s), "1/s");
    result.note("train_steps_per_s",
                uplinks * static_cast<double>(steps) / rep_s, "1/s");
    if (spec.eval_each_round)
      result.note("final_reward", first.final_reward, "");
    result.note("fail_ratio",
                static_cast<double>(result.failed) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, result.attempted)),
                "");
    result.note_text("digest", std::to_string(first.digest));
    return emit(result, Kind::kEndToEnd);
  }

  // Traced run: pairs of one untraced repetition through run_federated and
  // one traced rebuild of the same rounds, in alternating order so host
  // drift cancels in the per-pair overhead; then the client layers in
  // isolation.
  constexpr std::size_t kMaxPairs = 8;  // bounds span memory on fleet_lazy
  Tracer::instance().enable();
  std::vector<double> speed_ratio;  // untraced / traced loop time, per pair
  std::vector<TracedOutcome> traced_reps;
  const std::vector<int>& cpus = allowed_cpus();
  const std::int64_t start = now_ns();
  for (std::size_t pair = 0;; ++pair) {
    pin_to(cpus[pair % cpus.size()]);  // both halves of a pair on one CPU
    SyncOutcome plain;
    TracedOutcome traced;
    const auto base = static_cast<std::int64_t>(pair * spec.config.rounds);
    const std::string dir = options.scratch_dir + "/traced-ckpt";
    if (pair % 2 == 0) {
      plain = run_federated_once(spec);
      traced = run_traced(spec, dir, base);
    } else {
      traced = run_traced(spec, dir, base);
      plain = run_federated_once(spec);
    }
    const std::string label = "pair " + std::to_string(pair);
    check_outcome(spec, plain, label + " untraced", result);
    check_outcome(spec, traced.outcome, label + " traced", result);
    result.check(traced.outcome.digest == plain.digest &&
                     traced.outcome.final_reward == plain.final_reward,
                 label + ": traced committed-model digest and final_reward "
                         "equal run_federated's");
    result.attempted += 2 * spec.config.rounds;
    result.failed += plain.aborted + traced.outcome.aborted;
    speed_ratio.push_back(std::max(plain.wall_s - setup_s, 1e-9) /
                          std::max(traced.outcome.wall_s - setup_s, 1e-9));
    traced_reps.push_back(traced);
    const double per_pair =
        seconds_since(start) / static_cast<double>(pair + 1);
    if (pair + 1 >= kMaxPairs ||
        (pair + 1 >= 2 && seconds_since(start) + per_pair > options.seconds))
      break;
  }

  const SpanIndex index(Tracer::instance().collect());
  layer_metrics_from_spans(index, traced_reps, result);
  zero_serve_layers(result);
  measure_client_layers(spec.config.controller, spec.config.processor,
                        spec.device_apps.front(), spec.config.seed, result);
  result.set("trace.overhead_pct", 100.0 * (1.0 - median(speed_ratio)));
  result.note("pairs", static_cast<double>(speed_ratio.size()), "");

  // Paper §IV-C overhead reference row.
  const rl::NeuralBanditAgent probe_agent(spec.config.controller.agent,
                                          util::Rng(1));
  std::printf(
      "paper IV-C: controller step %.3f us (paper 29 ms) | %.0f B per "
      "transfer (paper 2.8 kB) | replay storage %.1f kB (paper ~100 kB)\n",
      result.metrics["core.controller_step_ns"] / 1e3,
      result.metrics["fed.bytes_per_transfer"],
      static_cast<double>(probe_agent.replay().storage_bytes()) / 1e3);
  // The trace file holds the first traced repetition.
  const bool written = Tracer::instance().write_chrome_trace(
      options.trace_path, static_cast<std::int64_t>(spec.config.rounds));
  result.check(written, "trace written to " + options.trace_path);
  return emit(result, Kind::kLayer);
}

}  // namespace fedbench
