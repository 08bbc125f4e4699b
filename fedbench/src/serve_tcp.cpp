// serve_tcp: the socket path from serve::ServeClient through
// serve::EpollFrontEnd and the SPSC shards to the deterministic commit.
//
// One process: up to 4 client threads, each with its own loopback
// connection, and a coordinator thread. Each round every client runs
// fetch -> decode -> scripted delta -> encode -> upload; the coordinator
// yield-polls round_distinct() until the whole draw has arrived (the
// bench_soak --tcp protocol), then calls commit_then_begin. Afterwards
// the committed model of every round is compared with an in-process
// ShardedServer fed the same float32-round-tripped scripted uploads.
#include <algorithm>
#include <atomic>
#include <limits>
#include <cstdio>
#include <memory>
#include <thread>

#include "affinity.hpp"
#include "core/controller.hpp"
#include "fed/codec.hpp"
#include "layers.hpp"
#include "nn/mlp.hpp"
#include "serve/client.hpp"
#include "serve/epoll_server.hpp"
#include "serve/server.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace fedbench {
namespace {

using namespace fedpower;

constexpr std::size_t kShardWorkers = 2;
constexpr std::size_t kMaxClients = 4;
constexpr double kRoundWatchdogS = 10.0;
constexpr std::uint64_t kStop = ~std::uint64_t{0};

/// A client's scripted local update: a pure hash of (seed, round, client,
/// coordinate), uniform in [-0.005, 0.005) — bounded and always finite.
double scripted_delta(std::uint64_t seed, std::uint64_t round,
                      std::uint64_t client, std::uint64_t i) {
  std::uint64_t s = seed ^ ((round + 1) * 0x9e3779b97f4a7c15ULL) ^
                    ((client + 1) * 0xbf58476d1ce4e5b9ULL) ^
                    ((i + 1) * 0x94d049bb133111ebULL);
  const std::uint64_t h = util::splitmix64(s);
  return (static_cast<double>(h >> 11) * 0x1.0p-53 - 0.5) * 0.01;
}

/// The Table I policy network's initial parameters (687 for 5->32->15).
std::vector<double> initial_model(std::uint64_t seed) {
  const rl::NeuralAgentConfig agent = core::ControllerConfig{}.agent;
  util::Rng rng(seed);
  return nn::make_mlp(agent.state_dim, agent.hidden_sizes, agent.action_count,
                      rng)
      .parameters();
}

std::size_t client_count() {
  const unsigned cores = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cores == 0 ? 1 : cores, 1, kMaxClients);
}

std::vector<std::size_t> everyone(std::size_t n) {
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  return all;
}

/// One client thread's record of a run.
struct ClientLog {
  std::vector<double> fetch_us;
  std::vector<double> upload_us;
  std::uint64_t fetches = 0;
  std::uint64_t uploads = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;  ///< failed fetch, wrong version, unacked upload
  std::uint64_t bytes_down = 0;
  std::uint64_t bytes_up = 0;
  std::size_t reconnects = 0;
};

/// Server, front end and connected clients: everything set-up builds.
struct Session {
  Session(std::size_t clients, const std::vector<double>& model,
          std::uint64_t seed)
      : server(clients, config()), front_end(&init(server, model)) {
    front_end.begin_round(everyone(clients));
    for (std::size_t id = 0; id < clients; ++id) {
      serve::ServeClientConfig c;
      c.port = front_end.port();
      c.client_id = static_cast<std::uint32_t>(id);
      c.jitter_seed = seed ^ ((id + 1) * 0x9e3779b97f4a7c15ULL);
      links.push_back(std::make_unique<serve::ServeClient>(c));
      (void)links.back()->resume();  // connect + session handshake
    }
  }

  static serve::ServeConfig config() {
    serve::ServeConfig c;
    c.workers = kShardWorkers;
    return c;
  }
  static serve::ShardedServer& init(serve::ShardedServer& s,
                                    const std::vector<double>& model) {
    s.initialize(model);
    return s;
  }

  serve::ShardedServer server;
  serve::EpollFrontEnd front_end;
  std::vector<std::unique_ptr<serve::ServeClient>> links;
};

void client_main(serve::ServeClient& link, std::size_t id, std::uint64_t seed,
                 const std::atomic<std::uint64_t>& open, ClientLog& log) {
  const fed::ModelCodec& codec = fed::Float32Codec::instance();
  for (std::uint64_t round = 0;; ++round) {
    // `open` = r + 1 while round r accepts uploads.
    std::uint64_t seen = open.load();
    while (seen <= round) {
      open.wait(seen);
      seen = open.load();
    }
    if (seen == kStop) return;
    const auto r = static_cast<std::int64_t>(round);
    try {
      serve::FetchResult fetched;
      {
        const ScopedSpan span("serve.fetch", r);
        const std::int64_t t0 = now_ns();
        ++log.fetches;
        fetched = link.fetch();
        log.fetch_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      }
      log.bytes_down += fetched.model.size();
      if (fetched.version != round) {
        ++log.failed;
        return;
      }
      std::vector<std::uint8_t> payload;
      {
        const ScopedSpan span("serve.client_codec", r);
        std::vector<double> local;
        {
          const ScopedSpan decode("client.decode", r);
          local = codec.decode(fetched.model);
        }
        for (std::size_t i = 0; i < local.size(); ++i)
          local[i] += scripted_delta(seed, round, id, i);
        const ScopedSpan encode("client.encode", r);
        payload = codec.encode(local);
      }
      const ScopedSpan span("serve.upload", r);
      const std::int64_t t0 = now_ns();
      ++log.uploads;
      link.set_last_acked_round(round);
      const bool acked = link.upload(round, 1, payload);
      log.upload_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      log.bytes_up += payload.size();
      if (acked)
        ++log.acked;
      else
        ++log.failed;
    } catch (const fed::TransportError& error) {
      std::fprintf(stderr, "serve_tcp client %zu: %s\n", id, error.what());
      ++log.failed;
      return;
    }
  }
}

/// What one timed run of rounds produced.
struct ServeRun {
  std::vector<ClientLog> logs;
  std::vector<std::uint64_t> committed_digests;  ///< per round
  double wall_s = 0.0;
  bool watchdog_fired = false;
  bool quorum_error = false;
  std::size_t protocol_errors = 0;
  serve::ServeStats stats;
};

/// Runs rounds on a fresh session for about `seconds` seconds.
ServeRun run_rounds(std::size_t clients, const std::vector<double>& model,
                    std::uint64_t seed, double seconds) {
  Session session(clients, model, seed);
  ServeRun run;
  run.logs.resize(clients);
  std::atomic<std::uint64_t> open{0};
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t id = 0; id < clients; ++id)
    threads.emplace_back(client_main, std::ref(*session.links[id]), id, seed,
                         std::cref(open), std::ref(run.logs[id]));

  const std::vector<std::size_t> draw = everyone(clients);
  const std::int64_t start = now_ns();
  open.store(1);
  open.notify_all();
  for (std::uint64_t round = 0;; ++round) {
    const auto r = static_cast<std::int64_t>(round);
    const ScopedSpan round_span("round", r);
    {
      const ScopedSpan wait("serve.arrival_wait", r);
      const std::int64_t deadline =
          now_ns() + static_cast<std::int64_t>(kRoundWatchdogS * 1e9);
      while (session.front_end.round_distinct() < clients &&
             now_ns() < deadline)
        std::this_thread::yield();
      run.watchdog_fired = session.front_end.round_distinct() < clients;
    }
    if (run.watchdog_fired) break;
    try {
      const ScopedSpan commit("serve.commit", r);
      (void)session.front_end.commit_then_begin(clients, draw);
    } catch (const fed::QuorumError&) {
      run.quorum_error = true;
      break;
    }
    // The loop thread writes the global model only inside a commit, and
    // the next commit is ours to post, so reading it here is race-free.
    run.committed_digests.push_back(digest(session.server.global_model()));
    if (static_cast<double>(now_ns() - start) / 1e9 >= seconds) break;
    open.store(round + 2);
    open.notify_all();
  }
  run.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  open.store(kStop);
  open.notify_all();
  for (std::thread& t : threads) t.join();
  for (std::size_t id = 0; id < clients; ++id)
    run.logs[id].reconnects = session.links[id]->reconnects();
  run.protocol_errors = session.front_end.protocol_errors();
  session.front_end.stop();
  session.server.drain();  // the front end was the orchestrator until now
  run.stats = session.server.stats();
  return run;
}

/// Committed-model digests of an in-process server fed the same scripted
/// uploads, each float32-round-tripped exactly as a TCP client sees it.
std::vector<std::uint64_t> reference_digests(std::size_t clients,
                                             const std::vector<double>& model,
                                             std::uint64_t seed,
                                             std::size_t rounds) {
  serve::ShardedServer server(clients);
  server.initialize(model);
  const fed::ModelCodec& codec = server.codec();
  std::vector<std::uint64_t> digests;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    server.begin_round(everyone(clients));
    const std::vector<std::uint8_t> fetched =
        codec.encode(server.global_model());
    for (std::size_t c = 0; c < clients; ++c) {
      std::vector<double> local = codec.decode(fetched);
      for (std::size_t i = 0; i < local.size(); ++i)
        local[i] += scripted_delta(seed, r, c, i);
      server.submit(c, r, codec.encode(local), 1.0);
    }
    server.drain();
    (void)server.commit_round(clients);
    digests.push_back(digest(server.global_model()));
  }
  return digests;
}

struct Totals {
  std::vector<double> fetch_us;
  std::vector<double> upload_us;
  std::uint64_t fetches = 0, uploads = 0, acked = 0, failed = 0;
  std::uint64_t bytes = 0;
  std::size_t reconnects = 0;
};

Totals totals(const ServeRun& run) {
  Totals t;
  for (const ClientLog& log : run.logs) {
    t.fetch_us.insert(t.fetch_us.end(), log.fetch_us.begin(),
                      log.fetch_us.end());
    t.upload_us.insert(t.upload_us.end(), log.upload_us.begin(),
                       log.upload_us.end());
    t.fetches += log.fetches;
    t.uploads += log.uploads;
    t.acked += log.acked;
    t.failed += log.failed;
    t.bytes += log.bytes_down + log.bytes_up;
    t.reconnects += log.reconnects;
  }
  return t;
}

/// Output checks of one run; also accounts attempted/failed operations.
void check_run(const ServeRun& run, std::size_t clients,
               const std::vector<double>& model, std::uint64_t seed,
               const std::string& label, Result& result) {
  const Totals t = totals(run);
  const std::size_t rounds = run.committed_digests.size();
  result.check(!run.watchdog_fired && !run.quorum_error && rounds > 0,
               label + ": " + std::to_string(rounds) +
                   " rounds committed, none stalled or aborted");
  result.check(reference_digests(clients, model, seed, rounds) ==
                   run.committed_digests,
               label + ": committed model equals the in-process reference "
                       "after every round");
  result.check(t.acked == t.uploads && t.failed == 0 &&
                   t.uploads == rounds * clients,
               label + ": " + std::to_string(t.acked) + "/" +
                   std::to_string(t.uploads) + " uplinks acked, " +
                   std::to_string(t.failed) + " failed operations");
  result.check(t.reconnects == 0 && run.protocol_errors == 0,
               label + ": " + std::to_string(t.reconnects) + " reconnects, " +
                   std::to_string(run.protocol_errors) + " protocol errors");
  result.attempted += t.fetches + t.uploads + rounds;
  result.failed += t.failed + (run.watchdog_fired || run.quorum_error ? 1 : 0);
}

/// Median set-up time. Each sample runs on a helper thread pinned, with
/// the threads it starts, to the next CPU: every hand-off between the
/// caller, the shard workers and the event loop is then a switch on one
/// CPU rather than a wake-up of whichever CPU the scheduler picked, which
/// made whole runs bimodal. The calling thread's placement is untouched.
double measure_setup_s(std::size_t clients, const std::vector<double>& model,
                       std::uint64_t seed, double budget_s) {
  std::vector<double> samples;
  const std::vector<int>& cpus = allowed_cpus();
  const std::int64_t start = now_ns();
  while (samples.size() < 5 ||
         (samples.size() < 200 &&
          static_cast<double>(now_ns() - start) / 1e9 < budget_s)) {
    const int cpu = cpus[samples.size() % cpus.size()];
    std::thread sample([&] {
      pin_to(cpu);
      const std::int64_t t0 = now_ns();
      const Session session(clients, model, seed);
      samples.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    });
    sample.join();
  }
  return median(samples);
}

}  // namespace

int run_serve_tcp(const RunOptions& options) {
  Result result;
  const std::size_t clients = client_count();
  const std::vector<double> model = initial_model(options.seed);
  const double setup_s = measure_setup_s(clients, model, options.seed, 0.5);
  result.note("clients", static_cast<double>(clients), "");

  // Untraced: the whole window, or its first half in a traced run.
  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;
  const ServeRun plain = run_rounds(clients, model, options.seed, untraced_s);
  check_run(plain, clients, model, options.seed, "untraced", result);
  const Totals t = totals(plain);
  const double rounds = static_cast<double>(plain.committed_digests.size());
  const double plain_rps = rounds / plain.wall_s;

  if (!options.trace) {
    result.set("setup_s", setup_s);
    result.set("rounds_per_s", plain_rps);
    result.set("uplinks_per_s", static_cast<double>(t.acked) / plain.wall_s);
    result.set("wire_kib_per_round",
               static_cast<double>(t.bytes) / std::max(rounds, 1.0) / 1024.0);
    result.set("peak_rss_mib", peak_rss_mib());
    result.note("uplink_p50_us", percentile(t.upload_us, 50), "us");
    result.note("uplink_p90_us", percentile(t.upload_us, 90), "us");
    result.note("fetch_p50_us", percentile(t.fetch_us, 50), "us");
    result.note("fetch_p90_us", percentile(t.fetch_us, 90), "us");
    result.note("uplink_samples", static_cast<double>(t.upload_us.size()), "");
    result.note("fail_ratio",
                static_cast<double>(result.failed) /
                    static_cast<double>(std::max<std::uint64_t>(
                        1, result.attempted)),
                "");
    return emit(result, Kind::kEndToEnd);
  }

  Tracer::instance().enable();
  const ServeRun traced =
      run_rounds(clients, model, options.seed, options.seconds / 2);
  check_run(traced, clients, model, options.seed, "traced", result);
  const SpanIndex index(Tracer::instance().collect());
  zero_client_layers(result);
  for (const char* name :
       {"runtime.hydrate_us", "runtime.hydrations_per_round",
        "runtime.dehydrate_ms_per_round", "runtime.hot_devices",
        "fed.broadcast_us", "fed.local_params_us", "fed.transfer_us",
        "fed.round_self_ms", "fed.aggregate_ms", "fed.defense_screen_us",
        "ckpt.serialize_ms", "ckpt.write_ms", "ckpt.snapshot_kib",
        "ckpt.ms_per_round"})
    result.set(name, 0.0);
  const double per_round = static_cast<double>(t.fetches + t.uploads) /
                           std::max(rounds, 1.0);
  result.set("fed.transfers_per_round", per_round);
  result.set("fed.bytes_per_transfer",
             static_cast<double>(t.bytes) /
                 static_cast<double>(std::max<std::uint64_t>(
                     1, t.fetches + t.uploads)));
  result.set("fed.encode_us", median(index.durations_us({"client.encode"})));
  result.set("fed.decode_us", median(index.durations_us({"client.decode"})));
  result.set("serve.arrival_wait_ms",
             median(index.durations_us({"serve.arrival_wait"})) / 1e3);
  result.set("serve.commit_us", median(index.durations_us({"serve.commit"})));
  result.set("serve.client_codec_us",
             median(index.durations_us({"serve.client_codec"})));
  result.set("serve.uplink_p50_us", percentile(t.upload_us, 50));
  result.set("serve.uplink_p90_us", percentile(t.upload_us, 90));
  result.set("serve.uplink_p99_us", percentile(t.upload_us, 99));
  result.set("serve.fetch_p50_us", percentile(t.fetch_us, 50));
  result.set("serve.fetch_p90_us", percentile(t.fetch_us, 90));
  result.set("serve.fetch_p99_us", percentile(t.fetch_us, 99));
  result.set("serve.deferred", static_cast<double>(plain.stats.deferred));
  result.set("serve.duplicates", static_cast<double>(plain.stats.duplicates));
  result.set("serve.reconnects", static_cast<double>(t.reconnects));
  result.set("serve.protocol_errors",
             static_cast<double>(plain.protocol_errors));
  const double traced_rps =
      static_cast<double>(traced.committed_digests.size()) / traced.wall_s;
  result.set("trace.overhead_pct",
             100.0 * (plain_rps - traced_rps) / plain_rps);
  result.set("trace.accounted_pct", index.accounted_pct());
  result.note("rounds_per_s.untraced", plain_rps, "1/s");
  result.note("rounds_per_s.traced", traced_rps, "1/s");
  result.note("uplink_samples", static_cast<double>(t.upload_us.size()), "");
  std::printf("paper IV-C: %.0f B per transfer (paper 2.8 kB)\n",
              result.metrics["fed.bytes_per_transfer"]);
  const bool written = Tracer::instance().write_chrome_trace(
      options.trace_path, std::numeric_limits<std::int64_t>::max());
  result.check(written, "trace written to " + options.trace_path);
  return emit(result, Kind::kLayer);
}

}  // namespace fedbench
