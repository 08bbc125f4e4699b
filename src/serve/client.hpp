// Serve-wire client with reconnect/resume (DESIGN.md §6, §14).
//
// The client speaks the serve wire protocol (wire.hpp) to the epoll front
// end over the shared blocking-socket primitives (socket_io.hpp), and adds
// the resilience layer the TCP chaos stack leans on:
//
//  * every operation retries over a fresh connection on transport error,
//    with bounded exponential backoff and seeded jitter (util::Rng — the
//    jitter stream is deterministic per client, never wall-clock);
//  * every (re)connect opens with the session-resume handshake, so the
//    server can tell a rejoining client from a protocol error and the
//    client learns the authoritative version before re-sending anything;
//  * a re-sent uplink is safe by design: the server's first-arrival dedup
//    resolves the round to one contribution, so the client re-sends
//    whenever it cannot prove the ack arrived. If the resume handshake
//    shows the server version has moved past the uplink's base version,
//    the round is already committed and the re-send is skipped.
//
// Failure model: every connection-level fault (refused or timed-out
// connect, peer close, EPIPE, I/O timeout, a malformed, oversized or
// truncated reply frame) surfaces as fed::TransportError after the retry
// budget, never as process death. Not thread-safe — one client per
// federation participant.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/wire.hpp"
#include "util/rng.hpp"

namespace fedpower::serve {

struct ServeClientConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint32_t client_id = 0;
  /// Wall-clock bound on establishing a connection; <= 0 waits forever,
  /// a positive bound counts as at least 1 ms and at most INT_MAX ms.
  double connect_timeout_s = 5.0;
  /// Per-syscall read/write bound via SO_RCVTIMEO/SO_SNDTIMEO; <= 0 off,
  /// a positive bound counts as at least 1 µs and at most INT_MAX ms.
  double io_timeout_s = 5.0;
  /// Total delivery tries per operation (1 = fail on the first fault).
  std::size_t max_attempts = 16;
  /// Bounded exponential backoff between retries.
  double backoff_initial_s = 0.002;
  double backoff_multiplier = 2.0;
  double backoff_max_s = 0.1;
  /// Seed of the jitter stream (each backoff sleeps a uniform fraction of
  /// the current bound — decorrelates a fleet retrying in lockstep while
  /// staying deterministic per client).
  std::uint64_t jitter_seed = 1;
};

struct FetchResult {
  std::uint64_t version = 0;
  std::vector<std::uint8_t> model;  ///< codec-encoded global model
};

class ServeClient {
 public:
  explicit ServeClient(ServeClientConfig config);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Current server version + encoded global model, retried until it
  /// lands. Throws fed::TransportError once the retry budget is spent.
  FetchResult fetch();

  /// Delivers one uplink and waits for the enqueue ack. On a transport
  /// fault the client reconnects (resume handshake), and re-sends; if the
  /// handshake shows version > base_version the round already committed
  /// without needing this re-send and upload() returns false (the uplink
  /// is obsolete, not lost). Returns true once acked.
  bool upload(std::uint64_t base_version, std::uint32_t weight,
              std::span<const std::uint8_t> model);

  /// Explicit session-resume handshake (also performed implicitly on every
  /// (re)connect). Returns the server's authoritative position.
  ResumeReply resume();

  /// Latest round the caller saw acknowledged; carried in the resume
  /// handshake so server-side telemetry can tell how far back a rejoining
  /// client is.
  void set_last_acked_round(std::uint64_t round) noexcept {
    last_acked_round_ = round;
  }

  [[nodiscard]] bool connected() const noexcept { return socket_ >= 0; }
  /// Reconnections performed after the initial connect (churn telemetry).
  [[nodiscard]] std::size_t reconnects() const noexcept {
    return reconnects_;
  }
  /// Transport faults survived via retry (any operation).
  [[nodiscard]] std::size_t retries() const noexcept { return retries_; }

 private:
  void connect_socket();
  void close_socket() noexcept;
  /// Connects if needed and performs the resume handshake.
  ResumeReply ensure_session();
  void backoff(std::size_t attempt);
  /// Reads one complete frame; checks the direction byte. Returns payload.
  std::vector<std::uint8_t> read_frame(std::uint8_t expect_direction);
  std::vector<std::uint8_t> request(std::uint8_t direction,
                                    std::span<const std::uint8_t> payload);

  ServeClientConfig config_;
  int socket_ = -1;
  bool resumed_ = false;  ///< handshake done on the current connection
  std::uint64_t last_acked_round_ = 0;
  std::uint64_t last_resume_version_ = 0;
  std::size_t reconnects_ = 0;
  std::size_t retries_ = 0;
  bool ever_connected_ = false;
  util::Rng jitter_;
};

}  // namespace fedpower::serve
