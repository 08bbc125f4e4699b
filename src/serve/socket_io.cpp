#include "serve/socket_io.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <limits>

namespace fedpower::serve {

namespace {

/// The one seconds -> kernel-units conversion behind to_timeval and
/// to_poll_ms: whole microseconds clamped to [1 µs, INT_MAX ms], or 0 for
/// "no bound". The clamp happens in double, before any integer cast, so
/// no input can overflow.
std::int64_t timeout_us(double timeout_s) noexcept {
  constexpr double kMaxUs =
      static_cast<double>(std::numeric_limits<int>::max()) * 1e3;
  if (!(timeout_s > 0.0)) return 0;
  const double us = std::min(timeout_s * 1e6, kMaxUs);
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(us));
}

/// Closes a half-built descriptor and reports `err` through errno.
int fail(int fd, int err) noexcept {
  ::close(fd);
  errno = err;
  return -1;
}

}  // namespace

timeval to_timeval(double timeout_s) noexcept {
  const std::int64_t us = timeout_us(timeout_s);
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(us / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(us % 1'000'000);
  return tv;
}

int to_poll_ms(double timeout_s) noexcept {
  const std::int64_t us = timeout_us(timeout_s);
  return us == 0 ? -1 : static_cast<int>((us + 999) / 1000);
}

bool set_io_timeouts(int fd, double timeout_s) noexcept {
  if (timeout_us(timeout_s) == 0) return true;
  const timeval tv = to_timeval(timeout_s);
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) == 0 &&
         ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv) == 0;
}

ssize_t read_some(int fd, void* data, std::size_t size) noexcept {
  for (;;) {
    const ssize_t n = ::recv(fd, data, size, 0);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

ReadStatus read_exact(int fd, void* data, std::size_t size) noexcept {
  auto* p = static_cast<std::uint8_t*>(data);
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = read_some(fd, p + got, size - got);
    if (n < 0) return ReadStatus::kError;
    if (n == 0) return got == 0 ? ReadStatus::kClosed : ReadStatus::kTruncated;
    got += static_cast<std::size_t>(n);
  }
  return ReadStatus::kOk;
}

bool write_all(int fd, const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t n = ::send(fd, p, size, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    if (n == 0) {  // no progress on a non-empty send: treat as a dead peer
      errno = EPIPE;
      return false;
    }
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

int connect_tcp(const std::string& host, std::uint16_t port,
                double connect_timeout_s) noexcept {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return -1;
  }
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (errno != EINPROGRESS && errno != EINTR) return fail(fd, errno);
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLOUT;
    int rc = 0;
    do {
      rc = ::poll(&pfd, 1, to_poll_ms(connect_timeout_s));
    } while (rc < 0 && errno == EINTR);
    if (rc < 0) return fail(fd, errno);
    if (rc == 0) return fail(fd, ETIMEDOUT);
    int err = 0;
    socklen_t err_len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0)
      return fail(fd, errno);
    if (err != 0) return fail(fd, err);
  }
  // Back to blocking for framed I/O.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  const int nodelay = 1;
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0 ||
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay) !=
          0)
    return fail(fd, errno);
  return fd;
}

int listen_loopback(int backlog, std::uint16_t& port) noexcept {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int reuse = 1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  socklen_t len = sizeof addr;
  if (::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof reuse) != 0 ||
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return fail(fd, errno);
  port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace fedpower::serve
