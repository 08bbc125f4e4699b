// Deterministic TCP fault-injection proxy (DESIGN.md §14).
//
// Sits between serve clients and the EpollFrontEnd and injects the
// socket-level faults the in-process ChaosEngine cannot express:
// connection refusals, mid-stream resets, mid-frame truncations and write
// stalls — real kernel-visible failures on real sockets, not simulated
// verdicts.
//
// Determinism follows the ChaosEngine fixed-draw contract: one seeded
// stream, and every accepted connection consumes exactly
// TcpChaosSchedule::kDrawsPerConnection draws (fate, fault offset, stall
// length) whether or not each draw is used. The stream position before
// connection k is therefore the pure function k * kDrawsPerConnection of
// the seed alone, so the k-th connection's fate never depends on which
// faults fired earlier, on probability knobs that gate other fates, or on
// accept timing. Same seed => same fault sequence by connection index,
// which is what lets a kill/resume soak replay the exact same network
// weather (the replay contract the tcpchaos tests pin).
//
// What stays nondeterministic is *which client* lands on connection k —
// OS scheduling decides accept order. The end-to-end bit-identity gate in
// bench_soak --tcp holds anyway because every fault is masked by a layer
// above: refusals/resets by client reconnect + resume, truncations by
// frame reassembly discarding the partial frame, duplicates by
// first-arrival dedup, stalls by bounded waits. Fault *counts* are
// deterministic; fault *victims* are not; committed bytes are.
//
// Threading: an accept-loop thread plus two pump threads per live
// connection (client->server applies the fault; server->client relays
// verbatim). Finished handlers are reaped on the accept path, so a churny
// soak holds threads per live connection, not per accept. No epoll here —
// the thread-per-connection shape is fine for a test harness and keeps the
// raw-epoll surface confined to the one L7-allowlisted TU. The pumps move
// bytes through the shared blocking-socket primitives
// (serve/socket_io.hpp).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/rng.hpp"

namespace fedpower::chaos {

/// Socket-level fate of one proxied connection.
enum class SocketFault : std::uint8_t {
  kClean = 0,     ///< relay verbatim
  kRefuse = 1,    ///< close immediately after accept (connect refused)
  kReset = 2,     ///< cut both directions after N client bytes
  kTruncate = 3,  ///< forward half of one client frame, then cut
  kStall = 4,     ///< pause the client->server pump once, then relay
};

/// The three fixed draws for one connection, resolved into a plan.
struct ConnectionPlan {
  SocketFault fault = SocketFault::kClean;
  /// Client-byte offset at which the fault arms (reset/truncate/stall).
  std::uint64_t fault_after_bytes = 0;
  /// Stall length; only applied when fault == kStall.
  double stall_s = 0.0;
};

struct TcpChaosConfig {
  std::uint64_t seed = 1;
  /// Fate probabilities; evaluated in this cumulative order, remainder is
  /// kClean. Sum must be <= 1.
  double refuse_probability = 0.0;
  double reset_probability = 0.0;
  double truncate_probability = 0.0;
  double stall_probability = 0.0;
  /// fault_after_bytes = reset_min_bytes + u * reset_window_bytes.
  std::uint64_t reset_min_bytes = 5;
  std::uint64_t reset_window_bytes = 64;
  /// stall_s = stall_min_s + u * (stall_max_s - stall_min_s).
  double stall_min_s = 0.005;
  double stall_max_s = 0.05;
};

/// The seeded fault schedule, separable from the proxy so tests can replay
/// it and assert the fixed-draw contract without opening a socket.
class TcpChaosSchedule {
 public:
  /// Draws consumed per connection: fate, fault offset, stall length —
  /// always all three, used or not (the fixed-draw contract).
  static constexpr std::size_t kDrawsPerConnection = 3;

  explicit TcpChaosSchedule(const TcpChaosConfig& config);

  /// Plan for the next connection (advances the stream by exactly
  /// kDrawsPerConnection).
  ConnectionPlan next();

  /// Plan for connection `index`, recomputed from the seed alone; agrees
  /// with the index-th next() of a fresh schedule.
  [[nodiscard]] ConnectionPlan at(std::size_t index) const;

  /// Connections planned so far via next().
  [[nodiscard]] std::size_t drawn() const noexcept { return drawn_; }

 private:
  static ConnectionPlan draw(util::Rng& rng, const TcpChaosConfig& config);

  TcpChaosConfig config_;
  util::Rng rng_;
  std::size_t drawn_ = 0;
};

/// The proxy itself: listens on an ephemeral loopback port, relays each
/// accepted connection to the upstream port through its scheduled fault.
class TcpChaosProxy {
 public:
  /// Starts listening and accepting. Throws fed::TransportError on socket
  /// errors.
  TcpChaosProxy(std::uint16_t upstream_port, TcpChaosConfig config);
  ~TcpChaosProxy();

  TcpChaosProxy(const TcpChaosProxy&) = delete;
  TcpChaosProxy& operator=(const TcpChaosProxy&) = delete;

  /// Port clients should connect to instead of the upstream's.
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stops accepting, cuts every live relay and joins all threads
  /// (idempotent).
  void stop();

  // Telemetry (atomics; readable from any thread). Refusals count at
  // accept; the other fault counters count only when the fault actually
  // fired (a connection can end before its fault offset is reached).
  [[nodiscard]] std::size_t connections() const noexcept {
    return connections_.load();
  }
  [[nodiscard]] std::size_t refusals() const noexcept {
    return refusals_.load();
  }
  [[nodiscard]] std::size_t resets() const noexcept { return resets_.load(); }
  [[nodiscard]] std::size_t truncations() const noexcept {
    return truncations_.load();
  }
  [[nodiscard]] std::size_t stalls() const noexcept { return stalls_.load(); }

  /// Scheduled fate of every accepted connection, in accept order; the
  /// replay-contract test checks this against a fresh schedule.
  [[nodiscard]] std::vector<SocketFault> scheduled_fates() const;

  /// Handler threads still alive (reaps finished ones first). Bounded by
  /// the number of live relays: the accept loop also reaps before
  /// admitting a connection, so a churny soak holds one handler per live
  /// connection, not one per connection ever accepted.
  std::size_t live_handler_count();

 private:
  struct Handler {
    std::thread thread;
    int client_fd = -1;
    int server_fd = -1;
    std::shared_ptr<std::atomic<bool>> done;
  };

  void accept_loop();
  void handle(int client_fd, int server_fd, ConnectionPlan plan);
  void reap_finished_locked();

  TcpChaosConfig config_;
  std::uint16_t upstream_port_ = 0;
  std::uint16_t port_ = 0;
  int listener_ = -1;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  bool stopped_ = false;

  /// Accept-thread-owned; no lock needed (single consumer).
  TcpChaosSchedule schedule_;

  mutable std::mutex mutex_;  ///< guards handlers_ and fates_
  std::vector<Handler> handlers_;
  std::vector<SocketFault> fates_;

  std::atomic<std::size_t> connections_{0};
  std::atomic<std::size_t> refusals_{0};
  std::atomic<std::size_t> resets_{0};
  std::atomic<std::size_t> truncations_{0};
  std::atomic<std::size_t> stalls_{0};
};

}  // namespace fedpower::chaos
