// Epoll-based TCP front end for the sharded federation server
// (DESIGN.md §12).
//
// One event-loop thread owns every socket: a non-blocking listener plus
// all accepted connections, multiplexed through a single epoll instance —
// thousands of concurrent clients cost file descriptors, not OS threads
// (contrast the chaos proxy's thread-per-connection). The loop is also the
// ShardedServer's single orchestrator: it injects decoded uplink frames
// into the shard queues and executes round commands (begin/commit) that
// other threads post through an eventfd-signalled command queue, so the
// server's no-locks-on-the-hot-path contract holds by construction.
//
// Framing is the serve wire's u32-LE length + direction byte (wire.hpp),
// with kMaxFrameBytes enforced at decode: an oversized or zero length
// closes the connection and counts in protocol_errors(); EOF mid-frame
// counts in truncated_frames(). An uplink frame (direction 0) carries the
// uplink header and is acknowledged with a 1-byte status frame once
// enqueued; an unknown client id or a zero sample weight in that header is
// a protocol error, never submitted; a fetch frame (direction 1) is
// answered with the current server version + encoded global model; a
// resume frame (direction 2) is the session-resume handshake (DESIGN.md
// §14) — a reconnecting client announces its id and last-acked round and
// receives the authoritative version + committed-round count, so a
// rejoining client is telemetry (sessions_resumed, per-client churn via
// ShardedServer::note_resume), not a protocol error.
//
// Graceful degradation: when the server config arms serve.idle_timeout_s,
// the loop reaps connections with no traffic for that long (deadline
// sweep on the epoll_wait timeout — no extra threads), so a half-open
// socket can no longer hold its slot forever. Reaps count in
// idle_reaped() and in the server's stats().idle_reaped.
//
// All raw epoll/eventfd syscalls live in epoll_server.cpp, the one TU the
// lint L7 allowlist admits them in.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "fed/federation.hpp"
#include "serve/server.hpp"

namespace fedpower::serve {

class EpollFrontEnd {
 public:
  /// Binds 127.0.0.1 on an ephemeral port and starts the event loop. The
  /// server must already be initialized; the front end becomes its sole
  /// orchestrator (do not call the server's mutating API elsewhere while
  /// the front end runs). Throws fed::TransportError on socket errors.
  explicit EpollFrontEnd(ShardedServer* server);
  ~EpollFrontEnd();

  EpollFrontEnd(const EpollFrontEnd&) = delete;
  EpollFrontEnd& operator=(const EpollFrontEnd&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Posts a begin-round command to the loop and waits for it to apply.
  void begin_round(std::vector<std::size_t> participants);

  /// Posts a commit command, waits for the result. Rethrows
  /// fed::QuorumError from the commit.
  fed::RoundResult commit_round(std::size_t quorum);

  /// Commit + begin-next as ONE loop-thread command: no fetch can observe
  /// the post-commit version while no round is open. Without this, a
  /// client that fetches in the gap between separate commit and begin
  /// posts would upload into the void (frames outside a round belong to
  /// no round) — the TCP round driver's pipelining primitive. On
  /// fed::QuorumError the next round is NOT begun.
  fed::RoundResult commit_then_begin(std::size_t quorum,
                                     std::vector<std::size_t> participants);

  // Counters below are written by the loop thread, readable from any
  // thread (monotonic telemetry; bench threads poll uplinks_received).
  [[nodiscard]] std::size_t connections_accepted() const noexcept {
    return connections_accepted_.load();
  }
  [[nodiscard]] std::size_t uplinks_received() const noexcept {
    return uplinks_received_.load();
  }
  [[nodiscard]] std::size_t fetches_served() const noexcept {
    return fetches_served_.load();
  }
  [[nodiscard]] std::size_t protocol_errors() const noexcept {
    return protocol_errors_.load();
  }
  [[nodiscard]] std::size_t truncated_frames() const noexcept {
    return truncated_frames_.load();
  }
  [[nodiscard]] std::size_t sessions_resumed() const noexcept {
    return sessions_resumed_.load();
  }
  [[nodiscard]] std::size_t idle_reaped() const noexcept {
    return idle_reaped_.load();
  }
  /// Distinct participants whose uplink for the open round has arrived
  /// (mirror of ShardedServer::round_distinct_arrivals(), refreshed by the
  /// loop thread each wakeup so round drivers on other threads can wait
  /// for the full draw before posting the commit).
  [[nodiscard]] std::size_t round_distinct() const noexcept {
    return round_distinct_.load();
  }

  /// Stops the loop, closes every socket and joins the thread
  /// (idempotent).
  void stop();

 private:
  struct Connection {
    std::vector<std::uint8_t> in;   ///< partial-frame reassembly buffer
    std::vector<std::uint8_t> out;  ///< pending reply bytes
    std::size_t out_offset = 0;     ///< bytes of `out` already written
    /// Last traffic on this socket (idle-deadline bookkeeping; only
    /// consulted when serve.idle_timeout_s is armed).
    std::chrono::steady_clock::time_point last_activity{};
  };

  struct Command {
    enum class Kind { kBeginRound, kCommitRound } kind = Kind::kBeginRound;
    std::vector<std::size_t> participants;
    std::size_t quorum = 1;
    /// Commit only: begin the next round (with `participants`) in the same
    /// command execution, atomically w.r.t. socket events.
    bool begin_next = false;
    std::promise<fed::RoundResult> result;
  };

  void loop();
  void accept_ready();
  void connection_readable(int fd);
  void connection_writable(int fd);
  bool handle_frame(int fd, Connection& conn, std::uint8_t direction,
                    std::vector<std::uint8_t> payload);
  void queue_reply(int fd, Connection& conn,
                   const std::vector<std::uint8_t>& frame);
  void flush_writes(int fd, Connection& conn);
  void close_connection(int fd);
  void run_commands();
  void update_interest(int fd, bool want_write);
  void reap_idle_connections();

  ShardedServer* server_;
  // The fds are opened in start() before the loop thread exists and closed
  // in stop() after it joins; the loop thread has them to itself in between.
  int epoll_fd_ = -1;  // lint: shard-ok(opened before the loop thread starts, closed after it joins)
  int listener_ = -1;  // lint: shard-ok(opened before the loop thread starts, closed after it joins)
  int wake_fd_ = -1;   // lint: shard-ok(opened before the loop thread starts, closed after it joins)
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> running_{false};
  bool stopped_ = false;

  // Loop-thread-owned. lint: shard-ok(only the loop thread touches it while running; orchestrator reads after join)
  std::map<int, Connection> connections_;

  /// Cold path: round commands only. lint: shard-ok(mutex is the crossing primitive itself)
  std::mutex command_mutex_;
  std::deque<Command> commands_;  // lint: shard-ok(guarded by command_mutex_ on both sides)

  // Cached encoding of the global model for fetch replies, refreshed when
  // the server version moves. Loop-thread-owned.
  std::uint64_t cached_version_ = ~std::uint64_t{0};
  std::vector<std::uint8_t> cached_global_;

  std::atomic<std::size_t> connections_accepted_{0};
  std::atomic<std::size_t> uplinks_received_{0};
  std::atomic<std::size_t> fetches_served_{0};
  std::atomic<std::size_t> protocol_errors_{0};
  std::atomic<std::size_t> truncated_frames_{0};
  std::atomic<std::size_t> sessions_resumed_{0};
  std::atomic<std::size_t> idle_reaped_{0};
  std::atomic<std::size_t> round_distinct_{0};
};

}  // namespace fedpower::serve
