// Fleet-scale bench (DESIGN.md §11): lazy fleet memory footprint and the
// per-round transport-retry accounting guard.
//
// Part 1 sweeps devices × participation-fraction over lazy fleets up to
// 100k devices at C = 0.01 and reports the heap bytes in use (glibc
// mallinfo2, as parts 4 and 5) after construction and after federated
// rounds with between-round dehydration, read while the fleet is alive.
// The acceptance property: a lazy fleet's memory follows the per-round
// working set (the C-fraction sample), not the fleet size — an eager
// 100k-device fleet would need tens of gigabytes (extrapolated here from a
// small eager fleet), the lazy one stays within a few tens of MB. (Process
// RSS growth, measured here before, read 0 whenever glibc reused heap that
// an earlier part had freed.)
//
// Part 2 is the long-horizon sweep: 10k devices at C = 0.01 for 300
// rounds, after which ~95 % of the fleet has trained and gone cold. A
// short sweep says little about cold-state cost, because almost every
// device is still pristine; here the cold records are the footprint. It
// gates the whole process's resident memory (an upper bound on the
// fleet's) at a quarter of the eager estimate (a device with a full replay
// ring), and reports the size of the cold blob a device leaves after one
// 4-step round and the mean time to hydrate a trained cold device.
//
// Part 3 guards the per-round transport-retry accounting: with one
// private transport per client, an accounting pass over the transport
// table was once O(clients^2) pointer comparisons (~seconds per round at
// 20k clients). The round now reads each used link's retry counter around
// its own transfer, so the cost follows the participants, not the table.
// The guard fails the bench (exit 1) if the accounting path regresses.
//
// Part 4 gates the cold record: the heap bytes (glibc mallinfo2 in-use
// delta) one never-touched device costs in a 100k-device lazy fleet plus
// its clients() proxies. The app lists are built before the first
// reading, so the figure is the runtime's own bookkeeping. The bench
// fails (exit 1) above kColdBytesBound.
//
// Part 5 gates the hot device: the heap bytes one pristine device costs
// once a broadcast has hydrated it and installed the global model, the
// per-participant working set of a lazy round. A device that has not
// trained holds no gradient accumulators, and its network no layer
// workspace. The bench fails (exit 1) above kHotBytesBound.
//
// Results land in BENCH_fleet_scale.json.
#include <malloc.h>
#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/binary_io.hpp"
#include "fleet.hpp"
#include "sim/splash2.hpp"

namespace {

using namespace fedpower;

/// Current resident set size in KiB (Linux /proc; 0 when unavailable).
std::size_t current_rss_kib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::size_t rss = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%zu", &rss);
      break;
    }
  }
  std::fclose(status);
  return rss;
}

/// Peak resident set size in KiB over the process lifetime.
std::size_t peak_rss_kib() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<std::size_t>(usage.ru_maxrss);
}

/// Heap bytes in use (arena chunks plus mmapped blocks); 0 where the
/// allocator does not keep glibc's statistics (e.g. under a sanitizer).
std::size_t heap_in_use_bytes() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

std::vector<std::vector<sim::AppProfile>> fleet_apps(std::size_t devices) {
  const std::vector<sim::AppProfile> suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps(devices);
  for (std::size_t d = 0; d < devices; ++d)
    apps[d].push_back(suite[d % suite.size()]);
  return apps;
}

core::ControllerConfig bench_controller() {
  core::ControllerConfig config;
  config.steps_per_round = 4;  // local training is not the subject here
  return config;
}

/// Upper bound on cold_bytes_per_device: the interned app-list index, the
/// hot-device pointer, the RNG-state cold record, the proxy and its
/// clients() slot come to ~132 B.
constexpr double kColdBytesBound = 160.0;

/// Heap bytes per device over `devices` devices, against a bound.
struct HeapFootprint {
  std::size_t devices = 0;
  double bytes_per_device = 0.0;
  bool measured = false;  ///< false when heap statistics are unavailable
  bool passed = false;
};

HeapFootprint measure_cold_footprint() {
  HeapFootprint result;
  result.devices = 100000;
  const auto apps = fleet_apps(result.devices);
  const std::size_t before = heap_in_use_bytes();
  benchutil::Fleet fleet =
      benchutil::make_fleet({bench_controller()}, sim::ProcessorConfig{},
                            apps, /*seed=*/2026,
                            runtime::FleetOptions{1, /*lazy=*/true});
  const std::vector<fed::FederatedClient*> clients = fleet.clients();
  const std::size_t after = heap_in_use_bytes();
  result.measured = before != 0 && after > before;
  if (result.measured)
    result.bytes_per_device = static_cast<double>(after - before) /
                              static_cast<double>(result.devices);
  result.passed =
      !result.measured || result.bytes_per_device <= kColdBytesBound;
  return result;
}

/// Upper bound on hot_bytes_per_device, 10 % over the 9,056 B measured
/// (glibc 2.36, x86-64): a hydrated pristine Table I device (processor,
/// workload, controller, the 687-parameter network and the installed
/// global model). It holds no layer workspace, and acting adds none: the
/// row forward keeps its rows in a per-thread scratch. Gradient
/// accumulators, which only training grows, would add ~5.4 KiB.
constexpr double kHotBytesBound = 9962.0;

HeapFootprint measure_hot_footprint() {
  HeapFootprint result;
  result.devices = 1000;
  benchutil::Fleet fleet =
      benchutil::make_fleet({bench_controller()}, sim::ProcessorConfig{},
                            fleet_apps(result.devices), /*seed=*/2026,
                            runtime::FleetOptions{1, /*lazy=*/true});
  const std::vector<fed::FederatedClient*> clients = fleet.clients();
  // The broadcast model comes from a device outside the fleet, so every
  // measured device is still pristine when the broadcast reaches it.
  const std::vector<double> global =
      benchutil::make_fleet({bench_controller()}, sim::ProcessorConfig{},
                            fleet_apps(1), /*seed=*/7,
                            runtime::FleetOptions{1, /*lazy=*/false})
          .controller(0)
          .local_parameters();
  const std::size_t before = heap_in_use_bytes();
  for (fed::FederatedClient* client : clients) client->receive_global(global);
  const std::size_t after = heap_in_use_bytes();
  result.measured = before != 0 && after > before;
  if (result.measured)
    result.bytes_per_device = static_cast<double>(after - before) /
                              static_cast<double>(result.devices);
  result.passed = !result.measured || result.bytes_per_device <= kHotBytesBound;
  return result;
}

struct SweepResult {
  std::size_t devices = 0;
  double fraction = 0.0;
  std::size_t participants = 0;
  std::size_t hot_after_round = 0;
  std::size_t heap_after_build_kib = 0;
  std::size_t heap_after_rounds_kib = 0;
  bool heap_measured = false;  ///< false when heap statistics are unavailable
  double build_seconds = 0.0;
  double round_seconds = 0.0;
  bool bounded = false;
};

/// Heap growth since `before` (heap_in_use_bytes), in KiB.
std::size_t heap_growth_kib(std::size_t before) {
  const std::size_t now = heap_in_use_bytes();
  return now > before ? (now - before) / 1024 : 0;
}

SweepResult run_sweep(std::size_t devices, double fraction,
                      std::size_t eager_kib_per_device) {
  SweepResult result;
  result.devices = devices;
  result.fraction = fraction;

  const std::size_t heap_before = heap_in_use_bytes();
  result.heap_measured = heap_before != 0;
  // lint: nondet-ok(wall-clock timing of the run, never fed into a seed)
  const auto build_start = std::chrono::steady_clock::now();
  benchutil::Fleet fleet =
      benchutil::make_fleet({bench_controller()}, sim::ProcessorConfig{},
                            fleet_apps(devices), /*seed=*/2026,
                            runtime::FleetOptions{1, /*lazy=*/true});
  result.build_seconds =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() - build_start)  // lint: nondet-ok(timing)
          .count();
  result.heap_after_build_kib = heap_growth_kib(heap_before);

  fed::InProcessTransport transport;
  fed::FederatedAveraging server(fleet.clients(), &transport);
  fed::SamplingConfig sampling;
  sampling.fraction = fraction;
  sampling.seed = 7;
  server.set_sampling(sampling);
  server.initialize(fleet.controller(0).local_parameters());

  // lint: nondet-ok(timing)
  const auto round_start = std::chrono::steady_clock::now();
  constexpr std::size_t kRounds = 2;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const fed::RoundResult round = server.run_round();
    result.participants = round.participants.size();
    fleet.dehydrate_inactive(round.participants);
  }
  result.round_seconds =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() - round_start)  // lint: nondet-ok(timing)
          .count() /
      static_cast<double>(kRounds);
  result.hot_after_round = fleet.hot_count();
  result.heap_after_rounds_kib = heap_growth_kib(heap_before);

  // Bounded-memory acceptance: the working set stays hot, the fleet does
  // not. Demand (a) the hot set tracks the sample, and (b) the fleet's heap
  // is under a quarter of what an eager fleet of this size would take.
  const std::size_t eager_estimate_kib = devices * eager_kib_per_device;
  result.bounded = result.hot_after_round <= result.participants &&
                   result.heap_after_rounds_kib < eager_estimate_kib / 4;
  return result;
}

struct LongHorizonResult {
  std::size_t devices = 0;
  double fraction = 0.0;
  std::size_t rounds = 0;
  std::size_t trained = 0;  ///< devices that took part at least once
  std::size_t hot_after = 0;
  std::size_t process_rss_kib = 0;
  std::size_t cold_blob_bytes = 0;  ///< one 4-step device's cold record
  double round_seconds = 0.0;
  double hydrate_us = 0.0;  ///< mean time to hydrate a trained cold device
  bool bounded = false;
};

/// Bytes of the state blob a device leaves when it dehydrates after one
/// local round: the FLT2 snapshot of a one-device lazy fleet minus its
/// framing (tag, device count, record kind, blob length prefix).
std::size_t cold_blob_bytes_after_one_round() {
  benchutil::Fleet fleet =
      benchutil::make_fleet({bench_controller()}, sim::ProcessorConfig{},
                            fleet_apps(1), /*seed=*/2026,
                            runtime::FleetOptions{1, /*lazy=*/true});
  fleet.clients()[0]->run_local_round();
  fleet.dehydrate(0);
  ckpt::Writer out;
  fleet.save_state(out);
  constexpr std::size_t kFlt2Framing = 4 + 8 + 1 + 8;
  return out.size() - kFlt2Framing;
}

LongHorizonResult run_long_horizon(std::size_t eager_kib_per_device) {
  LongHorizonResult result;
  result.devices = 10000;
  result.fraction = 0.01;
  result.rounds = 300;

  benchutil::Fleet fleet =
      benchutil::make_fleet({bench_controller()}, sim::ProcessorConfig{},
                            fleet_apps(result.devices), /*seed=*/2026,
                            runtime::FleetOptions{1, /*lazy=*/true});
  fed::InProcessTransport transport;
  fed::FederatedAveraging server(fleet.clients(), &transport);
  fed::SamplingConfig sampling;
  sampling.fraction = result.fraction;
  sampling.seed = 11;
  server.set_sampling(sampling);
  server.initialize(fleet.controller(0).local_parameters());

  std::vector<bool> trained(result.devices, false);
  // lint: nondet-ok(timing)
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < result.rounds; ++r) {
    const fed::RoundResult round = server.run_round();
    for (const std::size_t d : round.participants) trained[d] = true;
    fleet.dehydrate_inactive(round.participants);
  }
  result.round_seconds =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() - start)  // lint: nondet-ok(timing)
          .count() /
      static_cast<double>(result.rounds);
  for (const bool t : trained) result.trained += t ? 1 : 0;
  result.hot_after = fleet.hot_count();
  result.process_rss_kib = current_rss_kib();
  result.cold_blob_bytes = cold_blob_bytes_after_one_round();

  // Hydration cost, after the RSS reading: bring up to 1000 trained cold
  // devices back (construction plus blob restore) and time the lot.
  std::vector<std::size_t> cold;
  for (std::size_t d = 0; d < result.devices && cold.size() < 1000; ++d)
    if (trained[d] && !fleet.hot(d)) cold.push_back(d);
  // lint: nondet-ok(timing)
  const auto hydrate_start = std::chrono::steady_clock::now();
  for (const std::size_t d : cold) fleet.hydrate(d);
  result.hydrate_us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - hydrate_start)  // lint: nondet-ok(timing)
          .count() /
      static_cast<double>(cold.empty() ? 1 : cold.size());
  result.bounded = result.process_rss_kib <=
                   result.devices * eager_kib_per_device / 4;
  return result;
}

/// KiB per device of a materialized (eager) fleet whose replay rings are
/// full, measured on a small fleet so the 100k-device eager footprint can
/// be extrapolated without allocating it. Ring storage grows on push, so a
/// freshly built device holds almost none of it; filling every ring makes
/// the probe measure what a trained eager device holds. The fill records
/// transitions with training switched off, so no training workspace counts.
std::size_t measure_eager_kib_per_device() {
  constexpr std::size_t kProbe = 512;
  core::ControllerConfig probe = bench_controller();
  probe.agent.optimize_interval = probe.agent.replay_capacity + 1;
  const std::size_t before = current_rss_kib();
  benchutil::Fleet fleet =
      benchutil::make_fleet({probe}, sim::ProcessorConfig{},
                            fleet_apps(kProbe), 2026,
                            runtime::FleetOptions{1, /*lazy=*/false});
  const std::vector<double> state(probe.agent.state_dim, 0.5);
  for (std::size_t d = 0; d < kProbe; ++d) {
    rl::NeuralBanditAgent& agent = fleet.controller(d).agent();
    for (std::size_t i = 0; i < probe.agent.replay_capacity; ++i)
      agent.record(state, i % probe.agent.action_count, 1.0);
  }
  const std::size_t after = current_rss_kib();
  const std::size_t per_device = (after - before) / kProbe;
  return per_device > 0 ? per_device : 1;
}

/// A client with no state: the retries-guard federation must be dominated
/// by the transport-accounting scan, not local training.
class NullClient final : public fed::FederatedClient {
 public:
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {}

 private:
  std::vector<double> params_;
};

struct RetriesGuard {
  std::size_t clients = 0;
  double round_seconds = 0.0;
  bool passed = false;
};

RetriesGuard run_retries_guard() {
  // 20k clients, each with a private transport: a scan over the override
  // table per round was once O(n^2) (~10^8 comparisons); per-transfer
  // counter deltas touch only the 20 participants' links. Budget: well
  // under 100ms per round even on a loaded single-core host (the O(n^2)
  // path took seconds).
  constexpr std::size_t kClients = 20000;
  RetriesGuard guard;
  guard.clients = kClients;

  std::vector<NullClient> clients(kClients);
  std::vector<fed::FederatedClient*> ptrs;
  ptrs.reserve(kClients);
  for (NullClient& c : clients) ptrs.push_back(&c);
  fed::InProcessTransport shared;
  fed::FederatedAveraging server(ptrs, &shared);
  std::vector<std::unique_ptr<fed::InProcessTransport>> transports;
  transports.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    transports.push_back(std::make_unique<fed::InProcessTransport>());
    server.set_client_transport(c, transports.back().get());
  }
  fed::SamplingConfig sampling;
  sampling.fraction = 0.001;  // 20 participants: training cost ~ zero
  sampling.seed = 3;
  server.set_sampling(sampling);
  server.initialize({0.0, 0.0, 0.0, 0.0});

  constexpr std::size_t kRounds = 5;
  // lint: nondet-ok(timing)
  const auto start = std::chrono::steady_clock::now();
  server.run(kRounds);
  guard.round_seconds =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() - start)  // lint: nondet-ok(timing)
          .count() /
      static_cast<double>(kRounds);
  guard.passed = guard.round_seconds < 0.1;
  return guard;
}

}  // namespace

int main() {
  std::printf("== fleet scale: lazy runtime memory + retry accounting ==\n");

  const std::size_t eager_kib = measure_eager_kib_per_device();
  std::printf("eager footprint probe: ~%zu KiB/device\n", eager_kib);

  // First after the probe: later sweeps would leave freed heap resident
  // and inflate the process-wide RSS this sweep gates on.
  const LongHorizonResult horizon = run_long_horizon(eager_kib);
  std::printf(
      "long horizon: devices=%zu C=%.3f rounds=%zu  trained=%zu (%.1f%%)  "
      "hot=%zu  process rss=%zu KiB (bound %zu KiB = eager/4)  "
      "cold blob after one 4-step round=%zu B  round=%.3fs  "
      "hydrate=%.1fus  bounded=%s\n",
      horizon.devices, horizon.fraction, horizon.rounds, horizon.trained,
      100.0 * static_cast<double>(horizon.trained) /
          static_cast<double>(horizon.devices),
      horizon.hot_after, horizon.process_rss_kib,
      horizon.devices * eager_kib / 4, horizon.cold_blob_bytes,
      horizon.round_seconds, horizon.hydrate_us,
      horizon.bounded ? "yes" : "NO");

  std::vector<SweepResult> sweeps;
  const std::size_t sweep_devices[] = {10000, 100000};
  const double sweep_fractions[] = {0.001, 0.01};
  for (const std::size_t devices : sweep_devices) {
    for (const double fraction : sweep_fractions) {
      sweeps.push_back(run_sweep(devices, fraction, eager_kib));
      const SweepResult& s = sweeps.back();
      std::printf(
          "  devices=%-7zu C=%.3f  participants=%zu  hot=%zu  "
          "heap build=%zu KiB rounds=%zu KiB%s (eager est %zu KiB)  "
          "build=%.2fs round=%.2fs  bounded=%s\n",
          s.devices, s.fraction, s.participants, s.hot_after_round,
          s.heap_after_build_kib, s.heap_after_rounds_kib,
          s.heap_measured ? "" : " (heap statistics unavailable)",
          s.devices * eager_kib, s.build_seconds, s.round_seconds,
          s.bounded ? "yes" : "NO");
    }
  }

  const RetriesGuard guard = run_retries_guard();
  std::printf(
      "retries guard: %zu private transports, %.4fs/round (budget 0.1s) — "
      "%s\n",
      guard.clients, guard.round_seconds, guard.passed ? "ok" : "REGRESSED");

  // Last: its in-use delta does not depend on what ran before, while the
  // RSS readings above would see the heap it frees.
  const HeapFootprint cold = measure_cold_footprint();
  if (cold.measured) {
    std::printf(
        "cold record: %.1f B/device over %zu lazy devices (bound %.0f B) — "
        "%s\n",
        cold.bytes_per_device, cold.devices, kColdBytesBound,
        cold.passed ? "ok" : "REGRESSED");
  } else {
    std::printf("cold record: heap statistics unavailable, not gated\n");
  }
  const HeapFootprint hot = measure_hot_footprint();
  if (hot.measured) {
    std::printf(
        "hot device: %.1f B/device over %zu hydrated pristine devices "
        "(bound %.0f B) — %s\n",
        hot.bytes_per_device, hot.devices, kHotBytesBound,
        hot.passed ? "ok" : "REGRESSED");
  } else {
    std::printf("hot device: heap statistics unavailable, not gated\n");
  }

  bool all_bounded = horizon.bounded;
  for (const SweepResult& s : sweeps) all_bounded = all_bounded && s.bounded;

  std::FILE* out = std::fopen("BENCH_fleet_scale.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"fleet_scale\",\n");
    std::fprintf(out, "  \"cold_bytes_per_device\": %.1f,\n",
                 cold.bytes_per_device);
    std::fprintf(out, "  \"cold_bytes_bound\": %.0f,\n", kColdBytesBound);
    std::fprintf(out, "  \"hot_bytes_per_device\": %.1f,\n",
                 hot.bytes_per_device);
    std::fprintf(out, "  \"hot_bytes_bound\": %.0f,\n", kHotBytesBound);
    std::fprintf(out, "  \"eager_kib_per_device\": %zu,\n", eager_kib);
    std::fprintf(out, "  \"peak_rss_kib\": %zu,\n", peak_rss_kib());
    std::fprintf(out, "  \"sweeps\": [\n");
    for (std::size_t i = 0; i < sweeps.size(); ++i) {
      const SweepResult& s = sweeps[i];
      std::fprintf(out,
                   "    {\"devices\": %zu, \"fraction\": %.3f, "
                   "\"participants\": %zu, \"hot_after_round\": %zu, "
                   "\"heap_after_build_kib\": %zu, "
                   "\"heap_after_rounds_kib\": %zu, "
                   "\"eager_estimate_kib\": %zu, "
                   "\"build_seconds\": %.3f, \"round_seconds\": %.3f, "
                   "\"bounded\": %s}%s\n",
                   s.devices, s.fraction, s.participants, s.hot_after_round,
                   s.heap_after_build_kib, s.heap_after_rounds_kib,
                   s.devices * eager_kib, s.build_seconds, s.round_seconds,
                   s.bounded ? "true" : "false",
                   i + 1 < sweeps.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out,
                 "  \"long_horizon\": {\"devices\": %zu, \"fraction\": %.3f, "
                 "\"rounds\": %zu, \"trained\": %zu, \"hot_after\": %zu, "
                 "\"process_rss_kib\": %zu, \"rss_bound_kib\": %zu, "
                 "\"cold_blob_bytes\": %zu, \"round_seconds\": %.4f, "
                 "\"hydrate_us\": %.1f, \"bounded\": %s},\n",
                 horizon.devices, horizon.fraction, horizon.rounds,
                 horizon.trained, horizon.hot_after, horizon.process_rss_kib,
                 horizon.devices * eager_kib / 4, horizon.cold_blob_bytes,
                 horizon.round_seconds, horizon.hydrate_us,
                 horizon.bounded ? "true" : "false");
    std::fprintf(out,
                 "  \"retries_guard\": {\"clients\": %zu, "
                 "\"round_seconds\": %.4f, \"budget_seconds\": 0.1, "
                 "\"passed\": %s},\n",
                 guard.clients, guard.round_seconds,
                 guard.passed ? "true" : "false");
    std::fprintf(out, "  \"bounded_memory\": %s\n",
                 all_bounded ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_fleet_scale.json\n");
  }

  return (all_bounded && guard.passed && cold.passed && hot.passed) ? 0 : 1;
}
