// Async-server bench (DESIGN.md §12): the deterministic-commit gate and
// the epoll front end's uplink throughput.
//
// Part 1 is an acceptance gate, not a measurement: FederatedAveraging
// committing through a ShardedServer in deterministic commit mode must
// produce EXACTLY the bytes inline aggregation produces, at 1/2/4
// workers, with and without seeded transport faults. Any divergence fails
// the bench (exit 1) loudly — this is the contract that makes the
// sharded pipeline a drop-in replacement for the paper's server.
//
// Part 2 sweeps workers x clients over real loopback TCP through the
// EpollFrontEnd: every client holds its own connection, each uplink is
// timed send-to-ack (the ack is written only after the frame reached the
// shard queues), and the sweep reports p50/p95/p99 RTT plus end-to-end
// uplinks/sec including the round commits.
//
// `--smoke` runs the crash-tolerance scenario instead (scripts/
// server_smoke.sh): 250 concurrent connections, one client dies after
// half a frame, the round still commits at quorum 200 with exactly that
// client dropped.
//
// Results land in BENCH_server_throughput.json.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fed/codec.hpp"
#include "fed/fault_injection.hpp"
#include "fed/federation.hpp"
#include "serve/epoll_server.hpp"
#include "serve/server.hpp"
#include "serve/socket_io.hpp"
#include "serve/wire.hpp"

namespace {

using namespace fedpower;

// ---------------------------------------------------------------------------
// Part 1: the deterministic-commit gate.

/// Fixed-delta client, identical across the sync and serve fleets.
class ScriptedClient final : public fed::FederatedClient {
 public:
  explicit ScriptedClient(double delta) : delta_(delta) {}
  void receive_global(std::span<const double> params) override {
    params_.assign(params.begin(), params.end());
  }
  std::vector<double> local_parameters() const override { return params_; }
  void run_local_round() override {
    for (double& p : params_) p += delta_;
  }

 private:
  double delta_;
  std::vector<double> params_;
};

struct GateCase {
  std::size_t workers = 1;
  bool faults = false;
  std::size_t rounds_compared = 0;
  bool passed = false;
};

GateCase run_gate_case(std::size_t workers, bool faults) {
  GateCase result;
  result.workers = workers;
  result.faults = faults;

  const std::vector<double> deltas{0.5, -1.0, 2.0, 0.25, -0.75, 1.5,
                                   0.125, -2.0};
  std::vector<std::unique_ptr<ScriptedClient>> sync_fleet;
  std::vector<std::unique_ptr<ScriptedClient>> serve_fleet;
  std::vector<fed::FederatedClient*> sync_ptrs;
  std::vector<fed::FederatedClient*> serve_ptrs;
  for (const double d : deltas) {
    sync_fleet.push_back(std::make_unique<ScriptedClient>(d));
    serve_fleet.push_back(std::make_unique<ScriptedClient>(d));
    sync_ptrs.push_back(sync_fleet.back().get());
    serve_ptrs.push_back(serve_fleet.back().get());
  }

  fed::InProcessTransport sync_inner;
  fed::InProcessTransport serve_inner;
  fed::FaultInjectionConfig fault_config;
  fault_config.drop_probability = faults ? 0.15 : 0.0;
  fault_config.truncate_probability = faults ? 0.1 : 0.0;
  fault_config.seed = 29;
  fed::FaultInjectingTransport sync_faulty(&sync_inner, fault_config);
  fed::FaultInjectingTransport serve_faulty(&serve_inner, fault_config);

  fed::FederatedAveraging sync_server(sync_ptrs, &sync_faulty);
  serve::ServeConfig config;
  config.workers = workers;
  serve::ShardedServer sharded(serve_ptrs.size(), config);
  fed::FederatedAveraging serve_server(serve_ptrs, &serve_faulty, &sharded);

  fed::SamplingConfig sampling;
  sampling.fraction = 0.75;
  sampling.min_clients = 2;
  sampling.seed = 13;
  sync_server.set_sampling(sampling);
  serve_server.set_sampling(sampling);

  const std::vector<double> init(64, 0.5);
  sync_server.initialize(init);
  serve_server.initialize(init);

  result.passed = true;
  for (int round = 0; round < 8; ++round) {
    bool sync_committed = true;
    bool serve_committed = true;
    try {
      sync_server.run_round();
    } catch (const fed::QuorumError&) {
      sync_committed = false;
    }
    try {
      serve_server.run_round();
    } catch (const fed::QuorumError&) {
      serve_committed = false;
    }
    ++result.rounds_compared;
    if (sync_committed != serve_committed ||
        sync_server.global_model() != serve_server.global_model()) {
      result.passed = false;
      std::fprintf(stderr,
                   "DETERMINISM GATE FAILURE: workers=%zu faults=%d "
                   "round=%d — serve pipeline diverged from the "
                   "synchronous server\n",
                   workers, faults ? 1 : 0, round);
      break;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Part 2: TCP throughput through the epoll front end.

/// Minimal blocking frame client over the shared socket primitives.
class BenchClient {
 public:
  explicit BenchClient(std::uint16_t port)
      : fd_(serve::connect_tcp("127.0.0.1", port, 5.0)) {}
  ~BenchClient() { close(); }
  BenchClient(const BenchClient&) = delete;
  BenchClient& operator=(const BenchClient&) = delete;

  [[nodiscard]] bool ok() const noexcept { return fd_ >= 0; }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool send_bytes(const std::uint8_t* data, std::size_t size) {
    return serve::write_all(fd_, data, size);
  }

  /// Sends an uplink frame and blocks for the 1-byte enqueue ack.
  bool upload(const std::vector<std::uint8_t>& frame) {
    if (!send_bytes(frame.data(), frame.size())) return false;
    std::uint8_t reply[6];  // u32 len + direction + status byte
    return serve::read_exact(fd_, reply, sizeof reply) ==
               serve::ReadStatus::kOk &&
           reply[5] == 0;
  }

 private:
  int fd_ = -1;
};

std::vector<std::uint8_t> uplink_frame(std::uint32_t client,
                                       std::uint64_t base_version,
                                       std::span<const std::uint8_t> model) {
  serve::UplinkHeader header;
  header.client = client;
  header.base_version = base_version;
  return serve::encode_frame(serve::kUplinkDirection,
                             serve::encode_uplink(header, model));
}

double percentile(std::vector<double>& sorted_samples, double q) {
  if (sorted_samples.empty()) return 0.0;
  const double rank = q * static_cast<double>(sorted_samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted_samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted_samples[lo] * (1.0 - frac) + sorted_samples[hi] * frac;
}

struct SweepRow {
  std::size_t workers = 0;
  std::size_t clients = 0;
  std::size_t rounds = 0;
  std::size_t uplinks = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double uplinks_per_sec = 0.0;
};

std::optional<SweepRow> run_sweep(std::size_t workers, std::size_t clients,
                                  std::size_t rounds,
                                  std::size_t model_params) {
  serve::ServeConfig config;
  config.workers = workers;
  serve::ShardedServer server(clients, config);
  server.initialize(std::vector<double>(model_params, 0.25));
  serve::EpollFrontEnd front(&server);

  std::vector<std::unique_ptr<BenchClient>> sockets;
  for (std::size_t i = 0; i < clients; ++i) {
    sockets.push_back(std::make_unique<BenchClient>(front.port()));
    if (!sockets.back()->ok()) {
      std::fprintf(stderr, "sweep: connect %zu failed\n", i);
      return std::nullopt;
    }
  }

  const std::vector<double> local(model_params, 1.5);
  const std::vector<std::uint8_t> codec_bytes =
      fed::Float32Codec::instance().encode(local);
  std::vector<std::size_t> everyone(clients);
  for (std::size_t i = 0; i < clients; ++i) everyone[i] = i;

  using Clock = std::chrono::steady_clock;
  std::vector<double> rtt_us;
  rtt_us.reserve(clients * rounds);
  // lint: nondet-ok(wall-clock RTT measurement is the bench's output)
  const Clock::time_point start = Clock::now();
  for (std::size_t round = 0; round < rounds; ++round) {
    front.begin_round(everyone);
    for (std::size_t i = 0; i < clients; ++i) {
      const std::vector<std::uint8_t> frame = uplink_frame(
          static_cast<std::uint32_t>(i), server.version(), codec_bytes);
      const Clock::time_point t0 = Clock::now();  // lint: nondet-ok(timing)
      if (!sockets[i]->upload(frame)) {
        std::fprintf(stderr, "sweep: upload %zu failed\n", i);
        return std::nullopt;
      }
      const std::chrono::duration<double, std::micro> rtt =
          Clock::now() - t0;  // lint: nondet-ok(timing)
      rtt_us.push_back(rtt.count());
    }
    front.commit_round(clients);
  }
  // lint: nondet-ok(timing)
  const std::chrono::duration<double> elapsed = Clock::now() - start;

  std::sort(rtt_us.begin(), rtt_us.end());
  SweepRow row;
  row.workers = workers;
  row.clients = clients;
  row.rounds = rounds;
  row.uplinks = rtt_us.size();
  row.p50_us = percentile(rtt_us, 0.50);
  row.p95_us = percentile(rtt_us, 0.95);
  row.p99_us = percentile(rtt_us, 0.99);
  row.uplinks_per_sec =
      static_cast<double>(rtt_us.size()) / elapsed.count();
  return row;
}

// ---------------------------------------------------------------------------
// Smoke mode: 250 concurrent connections, one killed mid-frame.

bool run_smoke() {
  constexpr std::size_t kClients = 250;
  constexpr std::size_t kQuorum = 200;
  constexpr std::size_t kVictim = 137;

  serve::ServeConfig config;
  config.workers = 4;
  serve::ShardedServer server(kClients, config);
  server.initialize(std::vector<double>(32, 0.0));
  serve::EpollFrontEnd front(&server);

  std::vector<std::size_t> everyone(kClients);
  for (std::size_t i = 0; i < kClients; ++i) everyone[i] = i;
  front.begin_round(everyone);

  // Every client connects before anyone uploads: the front end holds all
  // 250 sockets on one event loop at once.
  std::vector<std::unique_ptr<BenchClient>> sockets;
  for (std::size_t i = 0; i < kClients; ++i) {
    sockets.push_back(std::make_unique<BenchClient>(front.port()));
    if (!sockets.back()->ok()) {
      std::fprintf(stderr, "smoke: connect %zu failed\n", i);
      return false;
    }
  }
  if (front.connections_accepted() < kClients) {
    // Accepts race the connect loop; the uploads below force the loop to
    // visit every socket, so just note the count later.
  }

  const std::vector<double> local(32, 1.0);
  const std::vector<std::uint8_t> codec_bytes =
      fed::Float32Codec::instance().encode(local);
  for (std::size_t i = 0; i < kClients; ++i) {
    if (i == kVictim) {
      // Advertise a full frame, deliver 3 bytes, die mid-round.
      const std::vector<std::uint8_t> frame = uplink_frame(
          static_cast<std::uint32_t>(i), 0, codec_bytes);
      if (!sockets[i]->send_bytes(frame.data(), 7)) return false;
      sockets[i]->close();
      continue;
    }
    if (!sockets[i]->upload(uplink_frame(static_cast<std::uint32_t>(i), 0,
                                         codec_bytes))) {
      std::fprintf(stderr, "smoke: upload %zu failed\n", i);
      return false;
    }
  }

  // The killed connection's EOF lands asynchronously; wait for the loop
  // to notice before committing.
  for (int spin = 0; spin < 800 && front.truncated_frames() == 0; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

  fed::RoundResult result;
  try {
    result = front.commit_round(kQuorum);
  } catch (const fed::QuorumError& err) {
    std::fprintf(stderr, "smoke: spurious quorum abort: %s\n", err.what());
    return false;
  }

  const bool truncated_ok = front.truncated_frames() == 1;
  const bool dropped_ok =
      result.dropped == std::vector<std::size_t>{kVictim};
  const bool survivors_ok = result.effective_clients() == kClients - 1;
  const bool accepted_ok = front.connections_accepted() == kClients;
  std::printf(
      "smoke: %zu connections, victim %zu killed mid-frame -> "
      "truncated_frames=%zu dropped=%zu effective=%zu committed_round=%zu\n",
      kClients, kVictim, front.truncated_frames(), result.dropped.size(),
      result.effective_clients(), server.rounds_committed());
  if (!truncated_ok)
    std::fprintf(stderr, "smoke FAIL: expected exactly 1 truncated frame\n");
  if (!dropped_ok)
    std::fprintf(stderr, "smoke FAIL: dropped set != {victim}\n");
  if (!survivors_ok)
    std::fprintf(stderr, "smoke FAIL: wrong survivor count\n");
  if (!accepted_ok)
    std::fprintf(stderr, "smoke FAIL: not every connection was accepted\n");
  return truncated_ok && dropped_ok && survivors_ok && accepted_ok;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--smoke") {
    const bool ok = run_smoke();
    std::printf("smoke: %s\n", ok ? "PASS" : "FAIL");
    return ok ? 0 : 1;
  }

  std::printf("== async server: determinism gate + TCP throughput ==\n");

  bool gate_passed = true;
  std::vector<GateCase> gate;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const bool faults : {false, true}) {
      gate.push_back(run_gate_case(workers, faults));
      const GateCase& g = gate.back();
      gate_passed = gate_passed && g.passed;
      std::printf("  gate workers=%zu faults=%-3s rounds=%zu  %s\n",
                  g.workers, g.faults ? "yes" : "no", g.rounds_compared,
                  g.passed ? "bit-identical" : "DIVERGED");
    }
  }

  std::vector<SweepRow> rows;
  bool sweep_passed = true;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    for (const std::size_t clients : {64u, 256u}) {
      const std::optional<SweepRow> row =
          run_sweep(workers, clients, 3, 1024);
      if (!row) {
        sweep_passed = false;
        continue;
      }
      rows.push_back(*row);
      std::printf(
          "  sweep workers=%zu clients=%-4zu uplinks=%-5zu "
          "p50=%.0fus p95=%.0fus p99=%.0fus  %.0f uplinks/s\n",
          row->workers, row->clients, row->uplinks, row->p50_us,
          row->p95_us, row->p99_us, row->uplinks_per_sec);
    }
  }

  std::FILE* out = std::fopen("BENCH_server_throughput.json", "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"bench\": \"server_throughput\",\n");
    std::fprintf(out, "  \"determinism_gate\": [\n");
    for (std::size_t i = 0; i < gate.size(); ++i) {
      std::fprintf(out,
                   "    {\"workers\": %zu, \"faults\": %s, "
                   "\"rounds_compared\": %zu, \"bit_identical\": %s}%s\n",
                   gate[i].workers, gate[i].faults ? "true" : "false",
                   gate[i].rounds_compared,
                   gate[i].passed ? "true" : "false",
                   i + 1 < gate.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"tcp_sweep\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& r = rows[i];
      std::fprintf(out,
                   "    {\"workers\": %zu, \"clients\": %zu, "
                   "\"rounds\": %zu, \"uplinks\": %zu, "
                   "\"p50_us\": %.1f, \"p95_us\": %.1f, \"p99_us\": %.1f, "
                   "\"uplinks_per_sec\": %.1f}%s\n",
                   r.workers, r.clients, r.rounds, r.uplinks, r.p50_us,
                   r.p95_us, r.p99_us, r.uplinks_per_sec,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"gate_passed\": %s,\n",
                 gate_passed ? "true" : "false");
    std::fprintf(out, "  \"sweep_passed\": %s\n",
                 sweep_passed ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote BENCH_server_throughput.json\n");
  }

  if (!gate_passed)
    std::fprintf(stderr,
                 "FAILED: deterministic serve commit diverged from the "
                 "synchronous server\n");
  return (gate_passed && sweep_passed) ? 0 : 1;
}
