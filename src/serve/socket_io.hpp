// Blocking-socket primitives shared by every thread-per-connection peer of
// the serve wire: ServeClient, the chaos proxy's pump threads, and the raw
// clients in the tests and benches.
//
// The primitives report a status and leave errno as the failing syscall
// set it; each caller maps that onto its own error surface (ServeClient
// throws fed::TransportError, the proxy's noexcept pumps just stop). Sends
// use MSG_NOSIGNAL, so a closed peer is an EPIPE status rather than a
// process-killing SIGPIPE, and every syscall restarts on EINTR. A read or
// write that ran into an SO_RCVTIMEO/SO_SNDTIMEO bound fails with errno
// EAGAIN/EWOULDBLOCK.
//
// No epoll, eventfd or accept4 here: the event-loop syscalls stay in
// epoll_server.cpp (lint L7).
#pragma once

#include <sys/time.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace fedpower::serve {

/// Seconds -> SO_RCVTIMEO/SO_SNDTIMEO value. A bound <= 0 (or NaN) is "no
/// bound" and maps to {0, 0}; a positive bound is clamped to [1 µs,
/// INT_MAX ms], so a tiny bound never truncates to the {0, 0} that
/// socket(7) reads as "never time out".
[[nodiscard]] timeval to_timeval(double timeout_s) noexcept;

/// Seconds -> poll() timeout. A bound <= 0 (or NaN) is "no bound" (-1); a
/// positive bound is clamped to [1 µs, INT_MAX ms] and rounded up to whole
/// milliseconds, so it is never 0 ("do not wait") and never overflows int.
[[nodiscard]] int to_poll_ms(double timeout_s) noexcept;

/// Applies `timeout_s` (see to_timeval) to both SO_RCVTIMEO and
/// SO_SNDTIMEO; a bound <= 0 leaves the socket untouched. False on a
/// setsockopt failure.
bool set_io_timeouts(int fd, double timeout_s) noexcept;

/// One recv(); returns bytes read, 0 on an orderly peer close, -1 on error.
ssize_t read_some(int fd, void* data, std::size_t size) noexcept;

/// Outcome of read_exact. On kError, errno holds the cause.
enum class ReadStatus : std::uint8_t {
  kOk,         ///< every byte arrived
  kClosed,     ///< orderly peer close before the first byte
  kTruncated,  ///< orderly peer close after some, but not all, bytes
  kError,
};

/// recv() exactly `size` bytes.
ReadStatus read_exact(int fd, void* data, std::size_t size) noexcept;

/// send() the whole buffer; false on error (errno holds the cause).
bool write_all(int fd, const void* data, std::size_t size) noexcept;

/// Connects to host:port (an IPv4 literal). The connect runs non-blocking
/// under poll(), bounded by `connect_timeout_s` (see to_poll_ms; <= 0 waits
/// forever), so a black-holed address fails in bounded time instead of
/// after the kernel's minutes-long default. The returned descriptor is
/// blocking, close-on-exec and has TCP_NODELAY set. Returns -1 on failure
/// with errno EINVAL for a host that is not an IPv4 literal, ETIMEDOUT when
/// the bound expires, and the socket/connect error otherwise.
int connect_tcp(const std::string& host, std::uint16_t port,
                double connect_timeout_s) noexcept;

/// Opens a blocking, close-on-exec TCP listener on 127.0.0.1 at an
/// ephemeral port (SO_REUSEADDR) and stores the port it got. Returns -1 on
/// failure with errno set.
int listen_loopback(int backlog, std::uint16_t& port) noexcept;

}  // namespace fedpower::serve
