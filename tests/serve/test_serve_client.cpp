// ServeClient's socket failure surface (DESIGN.md §6): every fault a peer
// can produce (refused connect, bad address, a listener that never
// accepts, a peer that drops every connection, oversized, truncated or
// missing reply frames) ends as a fed::TransportError within the retry
// budget, never as a hang; plus the one seconds -> kernel-units timeout
// conversion behind the client's connect and I/O bounds.
#include "serve/client.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/tcp_chaos_proxy.hpp"
#include "fed/transport.hpp"
#include "serve/epoll_server.hpp"
#include "serve/server.hpp"
#include "serve/socket_io.hpp"
#include "serve/wire.hpp"

namespace fedpower::serve {
namespace {

/// Fast-failing client config: `max_attempts` tries, millisecond backoff,
/// sub-second timeouts.
ServeClientConfig fast_config(std::uint16_t port, std::size_t max_attempts) {
  ServeClientConfig config;
  config.port = port;
  config.max_attempts = max_attempts;
  config.backoff_initial_s = 0.001;
  config.backoff_max_s = 0.005;
  config.connect_timeout_s = 2.0;
  config.io_timeout_s = 2.0;
  return config;
}

/// The message of the TransportError `op` throws ("" if it throws none).
template <typename Op>
std::string transport_error_of(Op&& op) {
  try {
    op();
  } catch (const fed::TransportError& e) {
    return e.what();
  }
  return "";
}

/// A loopback listener that never accepts: connects land in its backlog,
/// sends are buffered, and no reply ever comes.
class SilentListener {
 public:
  SilentListener() : fd_(listen_loopback(8, port_)) {
    EXPECT_GE(fd_, 0);
  }
  ~SilentListener() { close(); }
  SilentListener(const SilentListener&) = delete;
  SilentListener& operator=(const SilentListener&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Closing a listener resets the connections still in its backlog.
  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  std::uint16_t port_ = 0;
  int fd_ = -1;
};

/// One-shot raw peer: accepts a single connection, reads the client's
/// complete request frame, writes the scripted reply bytes verbatim and
/// closes — golden bytes for the client's reply-frame validation.
class ScriptedPeer {
 public:
  explicit ScriptedPeer(std::vector<std::uint8_t> reply)
      : reply_(std::move(reply)), listener_(listen_loopback(1, port_)) {
    EXPECT_GE(listener_, 0);
    thread_ = std::thread([this] {
      const int conn = ::accept(listener_, nullptr, nullptr);
      if (conn < 0) return;
      std::uint8_t header[4];
      if (read_exact(conn, header, sizeof header) == ReadStatus::kOk) {
        std::vector<std::uint8_t> body(load_u32_le(header));
        (void)read_exact(conn, body.data(), body.size());
      }
      (void)write_all(conn, reply_.data(), reply_.size());
      ::close(conn);
    });
  }
  ~ScriptedPeer() {
    thread_.join();
    ::close(listener_);
  }
  ScriptedPeer(const ScriptedPeer&) = delete;
  ScriptedPeer& operator=(const ScriptedPeer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

 private:
  std::vector<std::uint8_t> reply_;
  std::uint16_t port_ = 0;
  int listener_ = -1;
  std::thread thread_;
};

// --- the timeout conversion -------------------------------------------------

TEST(SocketTimeouts, PositiveBoundsNeverRoundToZero) {
  // {0, 0} would mean "never time out" to SO_RCVTIMEO, and 0 would mean
  // "do not wait" to poll().
  const timeval tiny = to_timeval(1e-9);
  EXPECT_EQ(tiny.tv_sec, 0);
  EXPECT_EQ(tiny.tv_usec, 1);
  EXPECT_EQ(to_poll_ms(1e-9), 1);
  const timeval half = to_timeval(2.5);
  EXPECT_EQ(half.tv_sec, 2);
  EXPECT_EQ(half.tv_usec, 500000);
  EXPECT_EQ(to_poll_ms(2.5), 2500);
  EXPECT_EQ(to_poll_ms(0.0015), 2);  // rounded up, never shortened
}

TEST(SocketTimeouts, NonPositiveOrNaNMeansNoBound) {
  for (const double s : {0.0, -1.0, std::nan("")}) {
    const timeval tv = to_timeval(s);
    EXPECT_EQ(tv.tv_sec, 0);
    EXPECT_EQ(tv.tv_usec, 0);
    EXPECT_EQ(to_poll_ms(s), -1);
  }
}

TEST(SocketTimeouts, HugeBoundsClampToIntMaxMilliseconds) {
  for (const double s :
       {3e6, 1e300, std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(to_poll_ms(s), INT_MAX) << s;
    const timeval tv = to_timeval(s);
    EXPECT_EQ(tv.tv_sec, INT_MAX / 1000) << s;
    EXPECT_EQ(tv.tv_usec, (INT_MAX % 1000) * 1000) << s;
  }
}

// --- connect failures --------------------------------------------------------

TEST(ServeClientFaults, ConnectToClosedPortThrows) {
  std::uint16_t dead_port = 0;
  {
    SilentListener listener;
    dead_port = listener.port();
  }
  ServeClient client(fast_config(dead_port, 1));
  EXPECT_THROW(client.resume(), fed::TransportError);
  EXPECT_FALSE(client.connected());
}

TEST(ServeClientFaults, BadAddressThrows) {
  ServeClientConfig config = fast_config(80, 1);
  config.host = "not-an-ip";
  ServeClient client(config);
  EXPECT_EQ(transport_error_of([&] { client.resume(); }),
            "serve client: bad address not-an-ip");
}

// --- bounded retries and timeouts -------------------------------------------

TEST(ServeClientFaults, RetriesAreBounded) {
  // Every connection (reconnects included) is closed on sight.
  ShardedServer server(1);
  server.initialize({0.0});
  EpollFrontEnd front(&server);
  chaos::TcpChaosConfig refuse_all;
  refuse_all.refuse_probability = 1.0;
  chaos::TcpChaosProxy proxy(front.port(), refuse_all);

  ServeClient client(fast_config(proxy.port(), 3));
  EXPECT_THROW(client.fetch(), fed::TransportError);
  EXPECT_EQ(client.retries(), 2u);  // attempts 2 and 3
  EXPECT_FALSE(client.connected());
  proxy.stop();
  EXPECT_EQ(proxy.refusals(), 3u);
  EXPECT_EQ(front.fetches_served(), 0u);
}

TEST(ServeClientFaults, ReadTimeoutSurfacesAsTransportError) {
  SilentListener listener;
  ServeClientConfig config = fast_config(listener.port(), 1);
  config.io_timeout_s = 0.05;
  ServeClient client(config);
  EXPECT_EQ(transport_error_of([&] { client.resume(); }),
            "serve client: read timed out");
}

TEST(ServeClientFaults, SubMicrosecondIoTimeoutStillBoundsTheRead) {
  // 1 ns must become the smallest real bound (1 µs), not the {0, 0}
  // "never time out" it would truncate to.
  SilentListener listener;
  ServeClientConfig config = fast_config(listener.port(), 1);
  config.io_timeout_s = 1e-9;
  ServeClient client(config);
  std::future<std::string> error = std::async(std::launch::async, [&] {
    return transport_error_of([&] { client.resume(); });
  });
  const bool bounded =
      error.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  // Rescue a hung read so the test fails instead of hanging: closing the
  // listener resets the connection parked in its backlog.
  if (!bounded) listener.close();
  const std::string message = error.get();
  EXPECT_TRUE(bounded) << "io_timeout_s = 1e-9 left the read unbounded";
  EXPECT_EQ(message, "serve client: read timed out");
}

// --- reply-frame validation --------------------------------------------------

TEST(ServeClientFaults, OversizedAdvertisedLengthRejectedBeforeAllocation) {
  // A reply header advertising 0xFFFFFFFF (> kMaxFrameBytes) is refused
  // before the length is trusted for allocation.
  ScriptedPeer peer({0xFF, 0xFF, 0xFF, 0xFF});
  ServeClient client(fast_config(peer.port(), 1));
  EXPECT_EQ(transport_error_of([&] { client.resume(); }),
            "serve client: oversized frame");
}

TEST(ServeClientFaults, ShortReadMidFrameReportsTruncation) {
  {  // header advertises 4 bytes (direction + 3), 2 arrive, then close
    ScriptedPeer peer({0x04, 0x00, 0x00, 0x00, kResumeDirection, 0x01});
    ServeClient client(fast_config(peer.port(), 1));
    EXPECT_EQ(transport_error_of([&] { client.resume(); }),
              "serve client: truncated frame");
  }
  {  // close inside the length header itself
    ScriptedPeer peer({0x04, 0x00});
    ServeClient client(fast_config(peer.port(), 1));
    EXPECT_EQ(transport_error_of([&] { client.resume(); }),
              "serve client: truncated frame");
  }
}

TEST(ServeClientFaults, PeerCloseAtFrameBoundaryIsNotTruncation) {
  ScriptedPeer peer({});
  ServeClient client(fast_config(peer.port(), 1));
  EXPECT_EQ(transport_error_of([&] { client.resume(); }),
            "serve client: peer closed");
}

}  // namespace
}  // namespace fedpower::serve
