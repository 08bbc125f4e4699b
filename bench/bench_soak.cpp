// Deterministic chaos soak (DESIGN.md §13): a days-equivalent federated
// run with every fault layer armed at once — transport drop/delay/
// truncate/disconnect, availability churn with seeded dwell times,
// workload shocks, sign-flip attackers — against the recovery machinery:
// per-round deadlines with straggler demotion, defense screening with
// churn-safe re-admission, FPCK checkpoints with corruption fallback.
//
// The soak is segmented into kill/resume cycles: each segment runs to a
// kill point that lands on a snapshot boundary, the process state is
// discarded (exactly what SIGKILL leaves behind: the rotation directory
// and nothing else), and the next segment resumes from the rotation.
// Before one resume the newest snapshot is deliberately bit-flipped, so
// recovery must fall back to the older entry and re-execute the gap.
//
// Invariants asserted per epoch and at the end (exit 1 on any failure):
//  * monotone rounds    — every segment's per-round history has exactly
//                         the target length; resumes never rewind or skip.
//  * honest quarantine  — no honest (uncompromised) device ends below the
//                         quarantine threshold: churn absences and
//                         straggler demotions produce NO defense
//                         observation, so availability cannot poison
//                         reputation.
//  * bounded RSS        — peak resident memory stays under a fixed budget
//                         across all cycles (the lazy fleet keeps the
//                         working set per-round sized).
//  * chaos-seed replay  — the segmented, kill/resumed, corruption-recovered
//                         run ends bit-identical to one uninterrupted run,
//                         at 1 and at 4 worker threads; the serve pipeline
//                         under the same chaos is worker-count invariant.
//
// Results land in BENCH_soak.json.
//
// --tcp mode (DESIGN.md §14) runs the fault stack over REAL sockets
// instead: scripted-delta client PROCESSES (fork+exec of this binary with
// --tcp-client) talk to the EpollFrontEnd through the seeded TcpChaosProxy
// — connection refusals, mid-stream resets, mid-frame truncations, write
// stalls — while the driver SIGKILLs clients mid-round and respawns them.
// Every layer of the recovery stack is live: client reconnect/backoff with
// the session-resume handshake, server-side first-arrival dedup and the
// round-replay guard, idle/half-open reaping. The gate is the same as the
// in-process soak: deterministic-mode committed model bytes bit-identical
// to an in-process reference at 1, 2 and 4 shard workers. Results land in
// BENCH_tcp_soak.json.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "chaos/tcp_chaos_proxy.hpp"
#include "ckpt/rotation.hpp"
#include "core/experiment.hpp"
#include "fed/codec.hpp"
#include "serve/client.hpp"
#include "serve/epoll_server.hpp"
#include "serve/server.hpp"
#include "sim/splash2.hpp"
#include "util/rng.hpp"

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

constexpr std::size_t kDevices = 12;
constexpr std::size_t kRounds = 320;
// At least one optimizer update per device per round (the agent trains
// every optimize_interval = 20 interactions): a round below that cadence
// uploads an unchanged model, and a fleet of no-op uploads collapses the
// defense's norm envelope until every real update looks oversized.
constexpr std::size_t kStepsPerRound = 20;
constexpr double kDvfsIntervalS = 60.0;  // one DVFS decision per minute
constexpr std::size_t kCkptEvery = 7;
constexpr std::size_t kPeakRssBudgetKib = 1536 * 1024;  // 1.5 GiB

std::vector<std::vector<sim::AppProfile>> soak_apps() {
  const std::vector<sim::AppProfile> suite = sim::splash2_suite();
  std::vector<std::vector<sim::AppProfile>> apps(kDevices);
  for (std::size_t d = 0; d < kDevices; ++d) {
    apps[d].push_back(suite[d % suite.size()]);
    apps[d].push_back(suite[(d + 5) % suite.size()]);
  }
  return apps;
}

/// The full chaos recipe: every fault layer on, every recovery layer on.
core::ExperimentConfig soak_config(std::size_t rounds,
                                   std::size_t num_threads) {
  core::ExperimentConfig config;
  config.rounds = rounds;
  config.seed = 42;
  config.num_threads = num_threads;
  config.lazy_fleet = true;
  config.controller.steps_per_round = kStepsPerRound;
  config.controller.dvfs_interval_s = kDvfsIntervalS;
  config.sampling.fraction = 0.75;
  config.sampling.min_clients = 4;
  config.sampling.seed = 7;
  config.quorum = 1;
  config.defense.enabled = true;
  config.faults.attack = fed::UploadAttack::kSignFlip;
  config.faults.fraction = 0.2;  // 3 of 12 devices flip their uploads
  config.faults.start_round = 10;
  config.faults.transport.drop_probability = 0.02;
  config.faults.transport.delay_probability = 0.05;
  config.faults.transport.injected_delay_s = 0.05;
  config.faults.transport.truncate_probability = 0.01;
  config.faults.transport.disconnect_probability = 0.01;
  config.faults.transport.seed = 7;
  config.chaos.enabled = true;
  config.chaos.seed = 2026;
  config.chaos.leave_probability = 0.05;
  config.chaos.rejoin_probability = 0.5;
  config.chaos.shock_probability = 0.1;
  // A clean downlink+uplink pair stays well under budget; one injected
  // 0.05 s delay pushes the client over and demotes it for the round.
  config.deadline_s = 0.05;
  return config;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Flips one bit in the middle of the newest snapshot: the CRC check must
/// reject it and load_latest() must fall back to the older entry.
bool corrupt_newest_snapshot(const std::string& dir) {
  const ckpt::SnapshotRotation rotation(dir, 3);
  const std::vector<std::uint64_t> seqs = rotation.sequences();
  if (seqs.empty()) return false;
  const std::string path = rotation.path_for(seqs.back());
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  if (size <= 0) {
    std::fclose(f);
    return false;
  }
  std::fseek(f, size / 2, SEEK_SET);
  const int byte = std::fgetc(f);
  std::fseek(f, size / 2, SEEK_SET);
  std::fputc(byte ^ 0x10, f);
  std::fclose(f);
  return true;
}

struct SoakOutcome {
  core::FederatedRunResult result;
  bool monotone = true;          ///< every epoch history had target length
  std::size_t resumes = 0;       ///< kill/resume cycles completed
  bool corrupted_fallback = false;  ///< bit-flip recovery exercised
};

/// Runs the soak as kill/resume segments sharing one rotation directory.
/// Each boundary discards all in-process state — the resume must rebuild
/// the run from the snapshot alone. `corrupt_at` picks the boundary whose
/// newest snapshot gets bit-flipped first.
SoakOutcome run_segmented(std::size_t num_threads, const std::string& dir,
                          const std::vector<std::size_t>& kill_points,
                          std::size_t corrupt_at) {
  std::filesystem::remove_all(dir);
  SoakOutcome outcome;
  const auto device_apps = soak_apps();
  const std::vector<sim::AppProfile> no_eval;
  for (std::size_t seg = 0; seg <= kill_points.size(); ++seg) {
    const std::size_t target =
        seg < kill_points.size() ? kill_points[seg] : kRounds;
    core::ExperimentConfig config = soak_config(target, num_threads);
    config.checkpoint.every_rounds = kCkptEvery;
    config.checkpoint.dir = dir;
    config.checkpoint.keep = 3;
    if (seg > 0) {
      config.checkpoint.resume_from = dir;
      ++outcome.resumes;
      if (seg == corrupt_at)
        outcome.corrupted_fallback = corrupt_newest_snapshot(dir);
    }
    outcome.result = core::run_federated(config, device_apps, no_eval,
                                         /*eval_each_round=*/false);
    // Epoch invariant: the per-round history is exactly `target` long —
    // the resumed round counter never rewound and never skipped.
    outcome.monotone =
        outcome.monotone &&
        outcome.result.robustness.screened_per_round.size() == target &&
        outcome.result.robustness.stragglers_per_round.size() == target;
    std::printf(
        "  [%zu threads] epoch %zu: rounds=%zu stragglers=%zu "
        "quarantined(max)=%zu rss=%zu KiB\n",
        num_threads, seg, target, outcome.result.robustness.total_stragglers,
        outcome.result.robustness.max_quarantined, current_rss_kib());
  }
  return outcome;
}

/// No honest device may end quarantined: churn absences and straggler
/// demotions feed the defense no observation, so availability alone can
/// never push an honest reputation below the threshold.
std::size_t honest_quarantined(const core::FederatedRunResult& result,
                               double threshold) {
  std::size_t count = 0;
  for (std::size_t d = 0; d < result.robustness.final_reputation.size();
       ++d) {
    const bool compromised =
        std::find(result.robustness.compromised.begin(),
                  result.robustness.compromised.end(),
                  d) != result.robustness.compromised.end();
    if (!compromised && result.robustness.final_reputation[d] < threshold)
      ++count;
  }
  return count;
}

/// Serve-pipeline phase: the same chaos schedule and deadline through the
/// sharded server must be worker-count invariant (defense stays off — the
/// serve path routes verdicts through the shared screening primitives
/// instead of the full pipeline).
bool serve_phase_invariant() {
  const auto device_apps = soak_apps();
  const std::vector<sim::AppProfile> no_eval;
  std::vector<core::FederatedRunResult> results;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    core::ExperimentConfig config = soak_config(40, /*num_threads=*/workers);
    config.defense.enabled = false;
    config.serve.enabled = true;
    config.serve.workers = workers;
    results.push_back(core::run_federated(config, device_apps, no_eval,
                                          /*eval_each_round=*/false));
  }
  return same_bytes(results[0].global_params, results[1].global_params) &&
         results[0].robustness.total_stragglers ==
             results[1].robustness.total_stragglers;
}

// ---------------------------------------------------------------------------
// --tcp mode: the soak driven over real sockets through the chaos proxy.
// ---------------------------------------------------------------------------

// Small on purpose: the TCP soak measures protocol survival, not learning.
// Deltas and participation are pure hash functions of (seed, round,
// client), so a SIGKILLed client process recomputes its exact upload from
// nothing but the fetched version — process state is never load-bearing.
constexpr std::size_t kTcpDevices = 6;
constexpr std::size_t kTcpRounds = 20;
constexpr std::size_t kTcpParams = 256;
constexpr std::uint64_t kTcpSeed = 4242;
constexpr std::uint64_t kTcpProxySeed = 77;
constexpr double kTcpIdleTimeoutS = 0.4;

double scripted_delta(std::uint64_t seed, std::uint64_t round,
                      std::uint64_t client, std::uint64_t i) {
  std::uint64_t s = seed ^ ((round + 1) * 0x9e3779b97f4a7c15ULL) ^
                    ((client + 1) * 0xbf58476d1ce4e5b9ULL) ^
                    ((i + 1) * 0x94d049bb133111ebULL);
  const std::uint64_t h = util::splitmix64(s);
  // Uniform in [-0.005, 0.005): bounded drift, never non-finite.
  return (static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5) * 0.01;
}

/// The round's participant draw — the same pure function in the driver,
/// the reference and every client process.
std::vector<std::size_t> tcp_participants(std::uint64_t seed,
                                          std::uint64_t round) {
  std::vector<std::size_t> out;
  for (std::size_t c = 0; c < kTcpDevices; ++c) {
    std::uint64_t s = seed ^ ((round + 1) * 0xd6e8feb86659fd93ULL) ^
                      ((c + 1) * 0xa5a5a5a5a5a5a5a5ULL);
    if ((util::splitmix64(s) & 3) != 0) out.push_back(c);  // ~75 %
  }
  if (out.empty()) out.push_back(round % kTcpDevices);
  return out;
}

/// What the committed model must be: the identical upload schedule driven
/// through an in-process server (worker count is irrelevant by the PR 7
/// determinism contract, so one reference covers every TCP worker count).
/// The codec round-trip mirrors what a TCP client sees in its fetch reply,
/// keeping the submitted payload bytes — and therefore the committed
/// model — bit-identical to the socket path.
std::vector<double> tcp_reference_model() {
  serve::ShardedServer server(kTcpDevices);
  server.initialize(std::vector<double>(kTcpParams, 0.0));
  const fed::ModelCodec& codec = server.codec();
  for (std::uint64_t r = 0; r < kTcpRounds; ++r) {
    const std::vector<std::size_t> participants =
        tcp_participants(kTcpSeed, r);
    server.begin_round(participants);
    const std::vector<std::uint8_t> fetched =
        codec.encode(server.global_model());
    for (const std::size_t c : participants) {
      std::vector<double> local = codec.decode(fetched);
      for (std::size_t i = 0; i < local.size(); ++i)
        local[i] += scripted_delta(kTcpSeed, r, c, i);
      server.submit(c, r, codec.encode(local), 1.0);
    }
    server.drain();
    server.commit_round(1);
  }
  return server.global_model();
}

/// Child process body (--tcp-client <port> <id>): fetch, recompute the
/// scripted upload for the current round, deliver it through whatever the
/// chaos proxy does to the connection, repeat until the server's version
/// reaches the round target. Stateless by construction — a respawn after
/// SIGKILL picks up exactly where the fetch says the federation is.
int tcp_client_main(std::uint16_t port, std::uint32_t id) {
  serve::ServeClientConfig config;
  config.port = port;
  config.client_id = id;
  config.connect_timeout_s = 2.0;
  config.io_timeout_s = 5.0;
  config.max_attempts = 400;
  config.backoff_initial_s = 0.001;
  config.backoff_multiplier = 2.0;
  config.backoff_max_s = 0.02;
  config.jitter_seed = kTcpSeed ^ ((id + 1) * 0x9e3779b97f4a7c15ULL);
  serve::ServeClient client(config);
  std::uint64_t uploaded_round = ~std::uint64_t{0};
  try {
    for (;;) {
      const serve::FetchResult fetched = client.fetch();
      if (fetched.version >= kTcpRounds) return 0;
      const std::uint64_t r = fetched.version;
      if (r == uploaded_round) {
        // Our upload is in; poll until the round commits.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
      const std::vector<std::size_t> participants =
          tcp_participants(kTcpSeed, r);
      if (std::find(participants.begin(), participants.end(), id) !=
          participants.end()) {
        const fed::ModelCodec& codec = fed::Float32Codec::instance();
        std::vector<double> local = codec.decode(fetched.model);
        for (std::size_t i = 0; i < local.size(); ++i)
          local[i] += scripted_delta(kTcpSeed, r, id, i);
        client.set_last_acked_round(r);
        // false = the round committed while we were reconnecting (our
        // earlier send landed); either way round r is settled for us.
        (void)client.upload(r, 1, codec.encode(local));
      }
      uploaded_round = r;
    }
  } catch (const fed::TransportError& error) {
    std::fprintf(stderr, "tcp client %u: %s\n", id, error.what());
    return 1;
  }
}

pid_t spawn_tcp_client(std::uint16_t port, std::size_t id) {
  // argv is fully formatted BEFORE fork: only async-signal-safe calls may
  // run between fork and exec in a multithreaded parent.
  char port_arg[16];
  char id_arg[16];
  std::snprintf(port_arg, sizeof port_arg, "%u", port);
  std::snprintf(id_arg, sizeof id_arg, "%zu", id);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execl("/proc/self/exe", "bench_soak", "--tcp-client", port_arg, id_arg,
            static_cast<char*>(nullptr));
    _exit(127);
  }
  return pid;
}

/// Opens a raw connection to the front end, writes a frame header plus a
/// few payload bytes and goes silent: a half-open socket that only the
/// idle reaper can clear. Returns the fd (closed by the caller at
/// teardown).
int inject_half_frame(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  // Header promises 100 bytes; only a direction byte and two more follow.
  const std::uint8_t junk[7] = {100, 0, 0, 0, 0, 0xAB, 0xCD};
  (void)::send(fd, junk, sizeof junk, MSG_NOSIGNAL);
  return fd;
}

bool wait_for_draw(const serve::EpollFrontEnd& front_end, std::size_t want,
                   double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +  // lint: nondet-ok(watchdog deadline; timing never feeds results)
      std::chrono::duration<double>(timeout_s);
  while (front_end.round_distinct() < want) {
    if (std::chrono::steady_clock::now() > deadline)  // lint: nondet-ok(watchdog deadline; timing never feeds results)
      return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

struct TcpRunOutcome {
  std::vector<double> model;
  bool completed = false;        ///< every round drew fully and committed
  /// No client has a corrupt or rejected verdict: socket faults and kills
  /// cost retries, never a bad upload.
  bool verdicts_clean = true;
  std::size_t kills = 0;
  std::size_t duplicates = 0;
  std::size_t sessions_resumed = 0;
  std::size_t idle_reaped = 0;
  std::size_t truncated_frames = 0;
  std::size_t proxy_connections = 0;
  std::size_t proxy_refusals = 0;
  std::size_t proxy_resets = 0;
  std::size_t proxy_truncations = 0;
  std::size_t proxy_stalls = 0;
};

/// One full TCP soak at the given worker count: server + front end +
/// chaos proxy + client processes + mid-round SIGKILLs.
TcpRunOutcome tcp_run(std::size_t workers) {
  TcpRunOutcome outcome;

  serve::ServeConfig config;
  config.workers = workers;
  config.idle_timeout_s = kTcpIdleTimeoutS;
  serve::ShardedServer server(kTcpDevices, config);
  server.initialize(std::vector<double>(kTcpParams, 0.0));
  serve::EpollFrontEnd front_end(&server);

  chaos::TcpChaosConfig chaos_config;
  chaos_config.seed = kTcpProxySeed;
  chaos_config.refuse_probability = 0.08;
  chaos_config.reset_probability = 0.20;  // heaviest: each reset forces a
  chaos_config.truncate_probability = 0.08;  // reconnect, feeding more
  chaos_config.stall_probability = 0.08;     // connections to the schedule
  chaos_config.reset_min_bytes = 8;
  chaos_config.reset_window_bytes = 900;
  chaos_config.stall_min_s = 0.002;
  chaos_config.stall_max_s = 0.02;
  chaos::TcpChaosProxy proxy(front_end.port(), chaos_config);

  // Round 0 must be open before any client can fetch version 0 and
  // upload; frames outside a round belong to no round.
  front_end.begin_round(tcp_participants(kTcpSeed, 0));

  std::vector<pid_t> pids(kTcpDevices);
  for (std::size_t id = 0; id < kTcpDevices; ++id)
    pids[id] = spawn_tcp_client(proxy.port(), id);

  int half_open_fd = -1;
  bool ok = true;
  for (std::uint64_t r = 0; r < kTcpRounds && ok; ++r) {
    const std::vector<std::size_t> participants =
        tcp_participants(kTcpSeed, r);
    if (r == 2) half_open_fd = inject_half_frame(front_end.port());
    // Every 6th round: once the round is visibly in flight, SIGKILL one
    // client — possibly mid-frame — and respawn it. The respawn rejoins
    // via the resume handshake and recomputes its upload from the fetch.
    if (r % 6 == 5) {
      if (!wait_for_draw(front_end, 1, 60.0)) {
        ok = false;
        break;
      }
      const std::size_t victim = r % kTcpDevices;
      ::kill(pids[victim], SIGKILL);
      int status = 0;
      ::waitpid(pids[victim], &status, 0);
      pids[victim] = spawn_tcp_client(proxy.port(), victim);
      ++outcome.kills;
    }
    if (!wait_for_draw(front_end, participants.size(), 60.0)) {
      ok = false;
      break;
    }
    try {
      if (r + 1 < kTcpRounds) {
        // Atomic commit+begin: no fetch can observe the bumped version
        // while no round is open, so no upload ever lands in the void.
        front_end.commit_then_begin(1, tcp_participants(kTcpSeed, r + 1));
      } else {
        front_end.commit_round(1);
      }
    } catch (const fed::QuorumError&) {
      ok = false;  // full draw waited => a quorum abort is a bug
    }
  }

  // Clients exit once a fetch shows the final version; reap with a
  // deadline so a wedged child fails the run instead of hanging it.
  const auto reap_deadline =
      std::chrono::steady_clock::now() +  // lint: nondet-ok(watchdog deadline; timing never feeds results)
      std::chrono::seconds(20);
  for (std::size_t id = 0; id < kTcpDevices; ++id) {
    for (;;) {
      int status = 0;
      const pid_t done = ::waitpid(pids[id], &status, WNOHANG);
      if (done == pids[id]) {
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ok = false;
        break;
      }
      if (std::chrono::steady_clock::now() > reap_deadline) {  // lint: nondet-ok(watchdog deadline; timing never feeds results)
        ::kill(pids[id], SIGKILL);
        ::waitpid(pids[id], &status, 0);
        ok = false;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Give the idle reaper a beat to clear the injected half-open socket.
  for (int spins = 0; front_end.idle_reaped() == 0 && spins < 300; ++spins)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (half_open_fd >= 0) ::close(half_open_fd);

  proxy.stop();
  outcome.sessions_resumed = front_end.sessions_resumed();
  outcome.idle_reaped = front_end.idle_reaped();
  outcome.truncated_frames = front_end.truncated_frames();
  front_end.stop();
  // The front end's loop thread was the orchestrator; after stop() the
  // bench thread takes over and establishes quiescence before reading.
  server.drain();
  outcome.model = server.global_model();
  outcome.completed = ok;
  outcome.duplicates = server.stats().duplicates;
  for (std::size_t c = 0; c < kTcpDevices; ++c) {
    const serve::ClientRecord& record = server.client_record(c);
    if (record.corrupt != 0 || record.rejected != 0)
      outcome.verdicts_clean = false;
  }
  outcome.proxy_connections = proxy.connections();
  outcome.proxy_refusals = proxy.refusals();
  outcome.proxy_resets = proxy.resets();
  outcome.proxy_truncations = proxy.truncations();
  outcome.proxy_stalls = proxy.stalls();
  return outcome;
}

int tcp_soak_main() {
  std::printf("== tcp chaos soak: socket faults + kill/resume ==\n");
  // lint: nondet-ok(wall-clock timing of the run, never fed into a seed)
  const auto start = std::chrono::steady_clock::now();

  const std::vector<double> reference = tcp_reference_model();
  const std::size_t worker_counts[] = {1, 2, 4};
  TcpRunOutcome outcomes[3];
  bool all_identical = true;
  bool all_completed = true;
  bool verdicts_clean = true;
  std::size_t total_resumed = 0;
  std::size_t total_reaped = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("tcp soak, %zu workers...\n", worker_counts[i]);
    outcomes[i] = tcp_run(worker_counts[i]);
    const bool identical = same_bytes(outcomes[i].model, reference);
    all_identical = all_identical && identical;
    all_completed = all_completed && outcomes[i].completed;
    verdicts_clean = verdicts_clean && outcomes[i].verdicts_clean;
    total_resumed += outcomes[i].sessions_resumed;
    total_reaped += outcomes[i].idle_reaped;
    std::printf(
        "  [%zu workers] identical=%s completed=%s kills=%zu dup=%zu "
        "resumes=%zu reaped=%zu truncated=%zu | proxy: conn=%zu refuse=%zu "
        "reset=%zu trunc=%zu stall=%zu\n",
        worker_counts[i], identical ? "yes" : "NO",
        outcomes[i].completed ? "yes" : "NO", outcomes[i].kills,
        outcomes[i].duplicates, outcomes[i].sessions_resumed,
        outcomes[i].idle_reaped, outcomes[i].truncated_frames,
        outcomes[i].proxy_connections, outcomes[i].proxy_refusals,
        outcomes[i].proxy_resets, outcomes[i].proxy_truncations,
        outcomes[i].proxy_stalls);
  }
  const double wall_seconds =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() - start)  // lint: nondet-ok(timing)
          .count();

  // Every client process performs the resume handshake on its first
  // connect, so resumes >= devices per run; kills and reconnects push it
  // higher. The half-open injection must have been reaped in every run.
  const bool resume_exercised =
      total_resumed >= 3 * kTcpDevices && total_reaped >= 3;
  const bool passed = all_identical && all_completed && verdicts_clean &&
                      resume_exercised;

  std::printf(
      "tcp soak: identical(1/2/4)=%s completed=%s verdicts clean=%s "
      "resume+reap exercised=%s | %.1fs wall\n",
      all_identical ? "yes" : "NO", all_completed ? "yes" : "NO",
      verdicts_clean ? "yes" : "NO", resume_exercised ? "yes" : "NO",
      wall_seconds);

  std::FILE* out = std::fopen("BENCH_tcp_soak.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"tcp_soak\",\n");
    std::fprintf(out, "  \"rounds\": %zu,\n", kTcpRounds);
    std::fprintf(out, "  \"devices\": %zu,\n", kTcpDevices);
    std::fprintf(out, "  \"params\": %zu,\n", kTcpParams);
    std::fprintf(out, "  \"runs\": [\n");
    for (std::size_t i = 0; i < 3; ++i) {
      std::fprintf(
          out,
          "    {\"workers\": %zu, \"identical\": %s, \"completed\": %s, "
          "\"kills\": %zu, \"duplicates\": %zu, \"sessions_resumed\": %zu, "
          "\"idle_reaped\": %zu, \"truncated_frames\": %zu, "
          "\"proxy\": {\"connections\": %zu, \"refusals\": %zu, "
          "\"resets\": %zu, \"truncations\": %zu, \"stalls\": %zu}}%s\n",
          worker_counts[i], same_bytes(outcomes[i].model, reference)
                                ? "true" : "false",
          outcomes[i].completed ? "true" : "false", outcomes[i].kills,
          outcomes[i].duplicates, outcomes[i].sessions_resumed,
          outcomes[i].idle_reaped, outcomes[i].truncated_frames,
          outcomes[i].proxy_connections, outcomes[i].proxy_refusals,
          outcomes[i].proxy_resets, outcomes[i].proxy_truncations,
          outcomes[i].proxy_stalls, i + 1 < 3 ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"verdicts_clean\": %s,\n",
                 verdicts_clean ? "true" : "false");
    std::fprintf(out, "  \"resume_exercised\": %s,\n",
                 resume_exercised ? "true" : "false");
    std::fprintf(out, "  \"wall_seconds\": %.1f,\n", wall_seconds);
    std::fprintf(out, "  \"passed\": %s\n", passed ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_tcp_soak.json\n");
  }
  return passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--tcp-client") == 0) {
    if (argc != 4) {
      std::fprintf(stderr, "usage: bench_soak --tcp-client <port> <id>\n");
      return 2;
    }
    return tcp_client_main(
        static_cast<std::uint16_t>(std::strtoul(argv[2], nullptr, 10)),
        static_cast<std::uint32_t>(std::strtoul(argv[3], nullptr, 10)));
  }
  if (argc >= 2 && std::strcmp(argv[1], "--tcp") == 0) return tcp_soak_main();

  std::printf("== chaos soak: multi-layer faults + kill/resume ==\n");
  const double simulated_days = static_cast<double>(kRounds) *
                                static_cast<double>(kStepsPerRound) *
                                kDvfsIntervalS / 86400.0;
  std::printf("simulated time: %.2f days (%zu rounds x %zu steps x %.0fs)\n",
              simulated_days, kRounds, kStepsPerRound, kDvfsIntervalS);

  // lint: nondet-ok(wall-clock timing of the run, never fed into a seed)
  const auto start = std::chrono::steady_clock::now();

  // Reference: one uninterrupted run, serial, no checkpointing.
  const auto device_apps = soak_apps();
  const std::vector<sim::AppProfile> no_eval;
  std::printf("reference run (uninterrupted, 1 thread)...\n");
  const core::FederatedRunResult reference = core::run_federated(
      soak_config(kRounds, 1), device_apps, no_eval, false);

  // Kill points land on snapshot boundaries (multiples of the cadence);
  // the bit-flip hits the resume into the third segment.
  const std::vector<std::size_t> kill_points = {70, 140, 210};
  std::printf("segmented soak, 1 thread (corrupting one snapshot)...\n");
  const SoakOutcome serial = run_segmented(1, "soak_ckpt_1t", kill_points,
                                           /*corrupt_at=*/2);
  std::printf("segmented soak, 4 threads...\n");
  const SoakOutcome threaded = run_segmented(4, "soak_ckpt_4t", kill_points,
                                             /*corrupt_at=*/2);

  std::printf("serve-pipeline phase (workers 1 vs 4)...\n");
  const bool serve_invariant = serve_phase_invariant();

  const double wall_seconds =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now() - start)  // lint: nondet-ok(timing)
          .count();

  const bool monotone = serial.monotone && threaded.monotone;
  const std::size_t honest_bad =
      honest_quarantined(serial.result,
                         core::ExperimentConfig{}.defense.quarantine_threshold);
  const bool quarantine_bounded = honest_bad == 0;
  const std::size_t rss_kib = peak_rss_kib();
  const bool rss_bounded = rss_kib > 0 && rss_kib < kPeakRssBudgetKib;
  const bool replay_1t =
      same_bytes(serial.result.global_params, reference.global_params);
  const bool replay_4t =
      same_bytes(threaded.result.global_params, reference.global_params);
  const bool fallback =
      serial.corrupted_fallback && threaded.corrupted_fallback;
  const std::size_t cycles = serial.resumes;

  std::printf(
      "monotone rounds: %s | honest quarantined: %zu | peak rss: %zu KiB "
      "(budget %zu) | replay 1t: %s | replay 4t: %s | corrupt fallback: %s "
      "| serve invariant: %s | %zu kill/resume cycles | %.1fs wall\n",
      monotone ? "yes" : "NO", honest_bad, rss_kib, kPeakRssBudgetKib,
      replay_1t ? "yes" : "NO", replay_4t ? "yes" : "NO",
      fallback ? "yes" : "NO", serve_invariant ? "yes" : "NO", cycles,
      wall_seconds);
  std::printf(
      "chaos schedule: %llu departures, %llu rejoins, %llu shocks, "
      "%zu straggler demotions, %llu aborted rounds\n",
      static_cast<unsigned long long>(serial.result.robustness.chaos.departures),
      static_cast<unsigned long long>(serial.result.robustness.chaos.rejoins),
      static_cast<unsigned long long>(serial.result.robustness.chaos.shocks),
      serial.result.robustness.total_stragglers,
      static_cast<unsigned long long>(serial.result.robustness.aborted_rounds));

  const bool passed = monotone && quarantine_bounded && rss_bounded &&
                      replay_1t && replay_4t && fallback && serve_invariant &&
                      cycles >= 3;

  std::FILE* out = std::fopen("BENCH_soak.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"soak\",\n");
    std::fprintf(out, "  \"simulated_days\": %.3f,\n", simulated_days);
    std::fprintf(out, "  \"rounds\": %zu,\n", kRounds);
    std::fprintf(out, "  \"devices\": %zu,\n", kDevices);
    std::fprintf(out, "  \"kill_resume_cycles\": %zu,\n", cycles);
    std::fprintf(out, "  \"corrupt_fallback_exercised\": %s,\n",
                 fallback ? "true" : "false");
    std::fprintf(out, "  \"chaos\": {\"departures\": %llu, \"rejoins\": %llu, "
                 "\"shocks\": %llu, \"max_offline\": %llu},\n",
                 static_cast<unsigned long long>(
                     serial.result.robustness.chaos.departures),
                 static_cast<unsigned long long>(
                     serial.result.robustness.chaos.rejoins),
                 static_cast<unsigned long long>(
                     serial.result.robustness.chaos.shocks),
                 static_cast<unsigned long long>(
                     serial.result.robustness.chaos.max_offline));
    std::fprintf(out, "  \"stragglers\": %zu,\n",
                 serial.result.robustness.total_stragglers);
    std::fprintf(out, "  \"aborted_rounds\": %llu,\n",
                 static_cast<unsigned long long>(
                     serial.result.robustness.aborted_rounds));
    std::fprintf(out, "  \"invariants\": {\n");
    std::fprintf(out, "    \"monotone_rounds\": %s,\n",
                 monotone ? "true" : "false");
    std::fprintf(out, "    \"honest_quarantined\": %zu,\n", honest_bad);
    std::fprintf(out, "    \"peak_rss_kib\": %zu,\n", rss_kib);
    std::fprintf(out, "    \"rss_budget_kib\": %zu,\n", kPeakRssBudgetKib);
    std::fprintf(out, "    \"replay_identical_1t\": %s,\n",
                 replay_1t ? "true" : "false");
    std::fprintf(out, "    \"replay_identical_4t\": %s,\n",
                 replay_4t ? "true" : "false");
    std::fprintf(out, "    \"serve_worker_invariant\": %s\n",
                 serve_invariant ? "true" : "false");
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"wall_seconds\": %.1f,\n", wall_seconds);
    std::fprintf(out, "  \"passed\": %s\n", passed ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_soak.json\n");
  }

  std::filesystem::remove_all("soak_ckpt_1t");
  std::filesystem::remove_all("soak_ckpt_4t");
  return passed ? 0 : 1;
}
