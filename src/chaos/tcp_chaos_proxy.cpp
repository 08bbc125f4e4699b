#include "chaos/tcp_chaos_proxy.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "fed/transport.hpp"
#include "serve/socket_io.hpp"
#include "serve/wire.hpp"
#include "util/assert.hpp"

namespace fedpower::chaos {

namespace {

using serve::read_exact;
using serve::read_some;
using serve::ReadStatus;
using serve::write_all;

/// Children are fork+exec'd while the proxy runs; none of its descriptors
/// may leak into them. accept4(SOCK_CLOEXEC) would be atomic but is
/// confined to the epoll front end by lint L7, so set the flag right after
/// the descriptor appears — single-purpose bench processes exec nothing in
/// the window.
void set_cloexec(int fd) noexcept { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

void shutdown_both(int a, int b) noexcept {
  ::shutdown(a, SHUT_RDWR);
  ::shutdown(b, SHUT_RDWR);
}

}  // namespace

TcpChaosSchedule::TcpChaosSchedule(const TcpChaosConfig& config)
    : config_(config), rng_(config.seed) {
  FEDPOWER_EXPECTS(config.refuse_probability >= 0.0);
  FEDPOWER_EXPECTS(config.reset_probability >= 0.0);
  FEDPOWER_EXPECTS(config.truncate_probability >= 0.0);
  FEDPOWER_EXPECTS(config.stall_probability >= 0.0);
  FEDPOWER_EXPECTS(config.refuse_probability + config.reset_probability +
                       config.truncate_probability +
                       config.stall_probability <=
                   1.0);
  FEDPOWER_EXPECTS(config.stall_min_s <= config.stall_max_s);
}

ConnectionPlan TcpChaosSchedule::draw(util::Rng& rng,
                                      const TcpChaosConfig& config) {
  // All three draws are consumed unconditionally and each costs exactly
  // one next_u64 (uniform(); never uniform_index, whose rejection step
  // consumes a variable number), so the stream advances by precisely
  // kDrawsPerConnection per call — the fixed-draw contract.
  const double fate = rng.uniform();
  const double offset = rng.uniform();
  const double stall = rng.uniform();

  ConnectionPlan plan;
  double edge = config.refuse_probability;
  if (fate < edge) {
    plan.fault = SocketFault::kRefuse;
  } else if (fate < (edge += config.reset_probability)) {
    plan.fault = SocketFault::kReset;
  } else if (fate < (edge += config.truncate_probability)) {
    plan.fault = SocketFault::kTruncate;
  } else if (fate < (edge += config.stall_probability)) {
    plan.fault = SocketFault::kStall;
  } else {
    plan.fault = SocketFault::kClean;
  }
  plan.fault_after_bytes =
      config.reset_min_bytes +
      static_cast<std::uint64_t>(
          offset * static_cast<double>(config.reset_window_bytes));
  plan.stall_s =
      config.stall_min_s + stall * (config.stall_max_s - config.stall_min_s);
  return plan;
}

ConnectionPlan TcpChaosSchedule::next() {
  ++drawn_;
  return draw(rng_, config_);
}

ConnectionPlan TcpChaosSchedule::at(std::size_t index) const {
  util::Rng rng(config_.seed);
  for (std::size_t i = 0; i < index * kDrawsPerConnection; ++i)
    (void)rng.next_u64();
  return draw(rng, config_);
}

TcpChaosProxy::TcpChaosProxy(std::uint16_t upstream_port,
                             TcpChaosConfig config)
    : config_(config), upstream_port_(upstream_port), schedule_(config) {
  listener_ = serve::listen_loopback(64, port_);
  if (listener_ < 0)
    throw fed::TransportError(
        std::string("tcp chaos proxy: listen failed: ") +
        std::strerror(errno));
  running_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpChaosProxy::~TcpChaosProxy() { stop(); }

std::vector<SocketFault> TcpChaosProxy::scheduled_fates() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fates_;
}

void TcpChaosProxy::stop() {
  if (stopped_) return;
  stopped_ = true;
  running_ = false;
  // Closing the listener unblocks accept().
  ::shutdown(listener_, SHUT_RDWR);
  ::close(listener_);
  if (accept_thread_.joinable()) accept_thread_.join();
  // The accept loop has exited, so handlers_ is stable now.
  std::vector<Handler> handlers;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    handlers.swap(handlers_);
  }
  // Shutdown unblocks pumps parked in recv(); fds stay open until every
  // handler has exited, so no pump can race a reused descriptor.
  for (const Handler& handler : handlers)
    shutdown_both(handler.client_fd, handler.server_fd);
  for (Handler& handler : handlers)
    if (handler.thread.joinable()) handler.thread.join();
  for (const Handler& handler : handlers) {
    ::close(handler.client_fd);
    ::close(handler.server_fd);
  }
}

void TcpChaosProxy::reap_finished_locked() {
  // Joining under mutex_ cannot deadlock (handlers never take the mutex
  // after startup) and cannot block: the done flag is the handler's final
  // action.
  std::size_t live = 0;
  for (std::size_t i = 0; i < handlers_.size(); ++i) {
    Handler& handler = handlers_[i];
    if (handler.done->load()) {
      if (handler.thread.joinable()) handler.thread.join();
      ::close(handler.client_fd);
      ::close(handler.server_fd);
    } else {
      if (live != i) handlers_[live] = std::move(handler);
      ++live;
    }
  }
  handlers_.resize(live);
}

std::size_t TcpChaosProxy::live_handler_count() {
  const std::lock_guard<std::mutex> lock(mutex_);
  reap_finished_locked();
  return handlers_.size();
}

void TcpChaosProxy::accept_loop() {
  while (running_) {
    // Plain accept + fcntl: see set_cloexec.
    const int client_fd = ::accept(listener_, nullptr, nullptr);
    if (client_fd < 0) {
      if (!running_) break;  // listener closed by stop()
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK)
        continue;
      break;  // genuinely fatal
    }
    if (!running_) {
      ::close(client_fd);
      break;
    }
    set_cloexec(client_fd);
    connections_.fetch_add(1);
    const ConnectionPlan plan = schedule_.next();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      fates_.push_back(plan.fault);
    }

    if (plan.fault == SocketFault::kRefuse) {
      // The client sees a connection that opens and dies before a single
      // byte — indistinguishable from a server refusing service.
      refusals_.fetch_add(1);
      ::close(client_fd);
      continue;
    }

    // Loopback connect to the upstream front end (no bound: loopback
    // answers at once); if the upstream is gone the client just sees
    // another failed connection.
    const int server_fd = serve::connect_tcp("127.0.0.1", upstream_port_, 0.0);
    if (server_fd < 0) {
      ::close(client_fd);
      continue;
    }
    const int nodelay = 1;
    ::setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &nodelay,
                 sizeof nodelay);

    const std::lock_guard<std::mutex> lock(mutex_);
    reap_finished_locked();
    Handler handler;
    handler.client_fd = client_fd;
    handler.server_fd = server_fd;
    handler.done = std::make_shared<std::atomic<bool>>(false);
    auto done = handler.done;
    handler.thread = std::thread([this, client_fd, server_fd, plan, done] {
      handle(client_fd, server_fd, plan);
      done->store(true);
    });
    handlers_.push_back(std::move(handler));
  }
}

void TcpChaosProxy::handle(int client_fd, int server_fd,
                           ConnectionPlan plan) {
  // Server->client pump: always verbatim (downlink faults would only
  // retread the same client-retry path the uplink faults already
  // exercise). Ends on either side closing; shutdown_both then wakes the
  // client->server pump.
  std::thread downstream([client_fd, server_fd] {
    std::uint8_t buffer[4096];
    for (;;) {
      const ssize_t n = read_some(server_fd, buffer, sizeof buffer);
      if (n <= 0) break;
      if (!write_all(client_fd, buffer, static_cast<std::size_t>(n))) break;
    }
    shutdown_both(client_fd, server_fd);
  });

  std::uint8_t buffer[4096];
  std::uint64_t seen = 0;  // client bytes pumped so far
  bool fault_armed = plan.fault == SocketFault::kReset ||
                     plan.fault == SocketFault::kStall;

  if (plan.fault == SocketFault::kTruncate) {
    // Frame-aware pump: relay whole frames until the fault offset is
    // crossed, then forward only the length header plus half the body of
    // the next frame — the server is guaranteed to see an incomplete
    // frame in its reassembly buffer when the connection dies, which is
    // exactly the truncated_frames() path under test.
    for (;;) {
      std::uint8_t header[4];
      if (read_exact(client_fd, header, sizeof header) != ReadStatus::kOk)
        break;
      const std::uint32_t frame_len = serve::load_u32_le(header);
      if (frame_len == 0 || frame_len > serve::kMaxFrameBytes) break;
      std::vector<std::uint8_t> body(frame_len);
      if (read_exact(client_fd, body.data(), body.size()) != ReadStatus::kOk)
        break;
      if (seen >= plan.fault_after_bytes) {
        truncations_.fetch_add(1);
        if (write_all(server_fd, header, sizeof header))
          (void)write_all(server_fd, body.data(), frame_len / 2);
        break;
      }
      if (!write_all(server_fd, header, sizeof header)) break;
      if (!write_all(server_fd, body.data(), body.size())) break;
      seen += sizeof header + frame_len;
    }
  } else {
    for (;;) {
      const ssize_t n = read_some(client_fd, buffer, sizeof buffer);
      if (n <= 0) break;
      std::size_t chunk = static_cast<std::size_t>(n);
      if (fault_armed && seen + chunk >= plan.fault_after_bytes) {
        if (plan.fault == SocketFault::kReset) {
          // Forward exactly up to the fault offset, then cut both ways:
          // the client loses the connection mid-operation, the server
          // sees a (possibly mid-frame) EOF.
          const std::size_t keep =
              static_cast<std::size_t>(plan.fault_after_bytes - seen);
          resets_.fetch_add(1);
          if (keep > 0) (void)write_all(server_fd, buffer, keep);
          break;
        }
        // Stall: one pause at the fault offset, then relay cleanly. Sliced
        // sleep so stop() is never stuck behind a long stall.
        stalls_.fetch_add(1);
        fault_armed = false;
        double remaining = plan.stall_s;
        while (remaining > 0.0 && running_.load()) {
          const double slice = std::min(remaining, 0.01);
          std::this_thread::sleep_for(std::chrono::duration<double>(slice));
          remaining -= slice;
        }
      }
      if (!write_all(server_fd, buffer, chunk)) break;
      seen += chunk;
    }
  }

  shutdown_both(client_fd, server_fd);
  if (downstream.joinable()) downstream.join();
}

}  // namespace fedpower::chaos
