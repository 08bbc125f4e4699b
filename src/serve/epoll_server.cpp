#include "serve/epoll_server.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <span>
#include <stdexcept>
#include <utility>

#include "fed/transport.hpp"
#include "serve/socket_io.hpp"
#include "serve/wire.hpp"
#include "util/assert.hpp"

namespace fedpower::serve {

namespace {

[[noreturn]] void throw_errno(const char* what, int err) {
  throw fed::TransportError(std::string("epoll front end: ") + what + ": " +
                            std::strerror(err));
}

constexpr std::size_t kMaxEvents = 64;
constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

EpollFrontEnd::EpollFrontEnd(ShardedServer* server) : server_(server) {
  FEDPOWER_EXPECTS(server_ != nullptr);
  FEDPOWER_EXPECTS(!server_->global_model().empty());

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("epoll_create1 failed", errno);

  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const int err = errno;
    ::close(epoll_fd_);
    throw_errno("eventfd failed", err);
  }

  // Non-blocking, so a connection reset between readiness and accept4()
  // cannot stall the loop.
  listener_ = listen_loopback(1024, port_);
  if (listener_ < 0 || ::fcntl(listener_, F_SETFL, O_NONBLOCK) != 0) {
    const int err = errno;
    if (listener_ >= 0) ::close(listener_);
    ::close(wake_fd_);
    ::close(epoll_fd_);
    throw_errno("listener failed", err);
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listener_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  running_.store(true);
  thread_ = std::thread([this] { loop(); });
}

EpollFrontEnd::~EpollFrontEnd() { stop(); }

void EpollFrontEnd::stop() {
  if (stopped_) return;
  stopped_ = true;
  running_.store(false);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  if (thread_.joinable()) thread_.join();
  for (const auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  ::close(listener_);
  ::close(wake_fd_);
  ::close(epoll_fd_);
  // Fail any commands posted after the loop quit instead of hanging their
  // waiters.
  const std::lock_guard<std::mutex> lock(command_mutex_);
  for (Command& command : commands_)
    command.result.set_exception(std::make_exception_ptr(
        std::runtime_error("epoll front end stopped")));
  commands_.clear();
}

void EpollFrontEnd::begin_round(std::vector<std::size_t> participants) {
  Command command;
  command.kind = Command::Kind::kBeginRound;
  command.participants = std::move(participants);
  std::future<fed::RoundResult> done = command.result.get_future();
  {
    const std::lock_guard<std::mutex> lock(command_mutex_);
    commands_.push_back(std::move(command));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  done.get();  // begin-round reports an empty result; propagate errors
}

fed::RoundResult EpollFrontEnd::commit_round(std::size_t quorum) {
  Command command;
  command.kind = Command::Kind::kCommitRound;
  command.quorum = quorum;
  std::future<fed::RoundResult> done = command.result.get_future();
  {
    const std::lock_guard<std::mutex> lock(command_mutex_);
    commands_.push_back(std::move(command));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  return done.get();  // rethrows fed::QuorumError from the loop thread
}

fed::RoundResult EpollFrontEnd::commit_then_begin(
    std::size_t quorum, std::vector<std::size_t> participants) {
  Command command;
  command.kind = Command::Kind::kCommitRound;
  command.quorum = quorum;
  command.begin_next = true;
  command.participants = std::move(participants);
  std::future<fed::RoundResult> done = command.result.get_future();
  {
    const std::lock_guard<std::mutex> lock(command_mutex_);
    commands_.push_back(std::move(command));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  return done.get();
}

void EpollFrontEnd::run_commands() {
  std::deque<Command> batch;
  {
    const std::lock_guard<std::mutex> lock(command_mutex_);
    batch.swap(commands_);
  }
  for (Command& command : batch) {
    try {
      fed::RoundResult result;
      switch (command.kind) {
        case Command::Kind::kBeginRound:
          server_->begin_round(std::move(command.participants));
          break;
        case Command::Kind::kCommitRound:
          result = server_->commit_round(command.quorum);
          // commit_then_begin: the next round opens before any socket
          // event can deliver an uplink against the bumped version.
          if (command.begin_next)
            server_->begin_round(std::move(command.participants));
          break;
      }
      // Refresh the progress mirror before the caller's future resolves:
      // a round driver reading round_distinct() right after begin/commit
      // must see the new round's count, not the previous round's.
      round_distinct_.store(server_->round_distinct_arrivals());
      command.result.set_value(std::move(result));
    } catch (...) {
      command.result.set_exception(std::current_exception());
    }
  }
}

void EpollFrontEnd::loop() {
  // Idle reaping rides on the epoll_wait timeout (no extra thread): with a
  // deadline armed the loop wakes at a fraction of it and sweeps. Even
  // without one the wait stays bounded: worker verdicts land on their own
  // threads, so a wakeup must happen for poll() to collect them and
  // refresh the round_distinct mirror — an unbounded wait would let the
  // last verdicts of a round sit invisible until the next socket event.
  const double idle_timeout_s = server_->config().idle_timeout_s;
  const int wait_ms =
      idle_timeout_s > 0.0
          ? std::clamp(static_cast<int>(idle_timeout_s * 1000.0 / 4.0), 10,
                       500)
          : 50;
  epoll_event events[kMaxEvents];
  while (running_.load()) {
    const int ready = ::epoll_wait(epoll_fd_, events,
                                   static_cast<int>(kMaxEvents), wait_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;  // fatal epoll error: shut the loop down
    }
    for (int e = 0; e < ready; ++e) {
      const int fd = events[e].data.fd;
      const std::uint32_t mask = events[e].events;
      if (fd == wake_fd_) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const ssize_t n =
            ::read(wake_fd_, &drain, sizeof drain);
        run_commands();
        continue;
      }
      if (fd == listener_) {
        accept_ready();
        continue;
      }
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        // Peer reset. Pending partial input means a frame died mid-wire.
        const auto it = connections_.find(fd);
        if (it != connections_.end() && !it->second.in.empty())
          truncated_frames_.fetch_add(1);
        close_connection(fd);
        continue;
      }
      if ((mask & EPOLLOUT) != 0) connection_writable(fd);
      if ((mask & EPOLLIN) != 0) connection_readable(fd);
      if (idle_timeout_s > 0.0) {
        const auto it = connections_.find(fd);
        if (it != connections_.end())
          it->second.last_activity = std::chrono::steady_clock::now();  // lint: nondet-ok(idle-deadline bookkeeping; wall time never reaches results)
      }
    }
    // Opportunistic pipeline progress: flush deferred frames and collect
    // worker verdicts (merging them in throughput mode) once per wakeup.
    server_->poll();
    round_distinct_.store(server_->round_distinct_arrivals());
    if (idle_timeout_s > 0.0) reap_idle_connections();
  }
}

void EpollFrontEnd::reap_idle_connections() {
  const double idle_timeout_s = server_->config().idle_timeout_s;
  const auto now = std::chrono::steady_clock::now();  // lint: nondet-ok(idle-deadline sweep; wall time never reaches results)
  std::vector<int> expired;
  for (const auto& [fd, conn] : connections_) {
    const double idle_s =
        std::chrono::duration<double>(now - conn.last_activity).count();
    if (idle_s >= idle_timeout_s) expired.push_back(fd);
  }
  for (const int fd : expired) {
    // A half-open socket dying with a partial frame buffered is the same
    // mid-wire death every other close path counts.
    const auto it = connections_.find(fd);
    if (it != connections_.end() && !it->second.in.empty())
      truncated_frames_.fetch_add(1);
    idle_reaped_.fetch_add(1);
    server_->note_idle_reap();
    close_connection(fd);
  }
}

void EpollFrontEnd::accept_ready() {
  for (;;) {
    const int conn = ::accept4(listener_, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // transient resource failure; keep serving existing clients
    }
    const int nodelay = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof nodelay);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn, &ev) != 0) {
      ::close(conn);
      continue;
    }
    Connection fresh;
    fresh.last_activity = std::chrono::steady_clock::now();  // lint: nondet-ok(idle-deadline bookkeeping; wall time never reaches results)
    connections_.emplace(conn, std::move(fresh));
    connections_accepted_.fetch_add(1);
  }
}

void EpollFrontEnd::connection_readable(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = it->second;

  std::uint8_t chunk[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      close_connection(fd);
      return;
    }
    if (n == 0) {
      // Orderly close. Bytes short of a frame boundary mean the client
      // died mid-frame (the smoke test's killed client lands here).
      if (!conn.in.empty()) truncated_frames_.fetch_add(1);
      close_connection(fd);
      return;
    }
    conn.in.insert(conn.in.end(), chunk, chunk + n);
  }

  // Decode every complete frame in the reassembly buffer. kMaxFrameBytes
  // is enforced here, before the advertised length is trusted for
  // anything.
  std::size_t offset = 0;
  while (conn.in.size() - offset >= 4) {
    const std::uint32_t frame_len = load_u32_le(conn.in.data() + offset);
    if (frame_len == 0 || frame_len > kMaxFrameBytes) {
      protocol_errors_.fetch_add(1);
      close_connection(fd);
      return;
    }
    if (conn.in.size() - offset - 4 < frame_len) break;  // partial frame
    const std::uint8_t direction = conn.in[offset + 4];
    std::vector<std::uint8_t> payload(
        conn.in.begin() + static_cast<std::ptrdiff_t>(offset + 5),
        conn.in.begin() + static_cast<std::ptrdiff_t>(offset + 4 + frame_len));
    offset += 4 + frame_len;
    if (!handle_frame(fd, conn, direction, std::move(payload))) {
      protocol_errors_.fetch_add(1);
      close_connection(fd);
      return;
    }
  }
  conn.in.erase(conn.in.begin(),
                conn.in.begin() + static_cast<std::ptrdiff_t>(offset));
}

bool EpollFrontEnd::handle_frame(int fd, Connection& conn,
                                 std::uint8_t direction,
                                 std::vector<std::uint8_t> payload) {
  if (direction == 0) {  // uplink: header + model bytes
    UplinkHeader header;
    if (!decode_uplink_header(payload, header)) return false;
    if (header.client >= server_->client_count()) return false;
    // A zero sample weight would leave a sample-weighted round with no
    // weight to divide by, so it is as hostile as an unknown client.
    if (header.weight == 0) return false;
    server_->submit(header.client, header.base_version,
                    std::span(payload).subspan(kUplinkHeaderBytes),
                    static_cast<double>(header.weight));
    uplinks_received_.fetch_add(1);
    // Ack once enqueued; the commit decides acceptance, the ack only
    // bounds the client's uplink latency measurement.
    const std::vector<std::uint8_t> status{0};
    queue_reply(fd, conn, encode_frame(kUplinkDirection, status));
    return true;
  }
  if (direction == 1) {  // fetch: reply version + global model
    if (cached_version_ != server_->version()) {
      cached_version_ = server_->version();
      cached_global_ = server_->codec().encode(server_->global_model());
    }
    fetches_served_.fetch_add(1);
    queue_reply(fd, conn,
                encode_frame(kFetchDirection,
                             encode_fetch_reply(cached_version_,
                                                cached_global_)));
    return true;
  }
  if (direction == kResumeDirection) {  // session-resume handshake
    ResumeRequest request;
    if (!decode_resume_request(payload, request)) return false;
    if (request.client >= server_->client_count()) return false;
    sessions_resumed_.fetch_add(1);
    server_->note_resume(request.client);
    ResumeReply reply;
    reply.version = server_->version();
    reply.rounds_committed = server_->rounds_committed();
    queue_reply(fd, conn,
                encode_frame(kResumeDirection, encode_resume_reply(reply)));
    return true;
  }
  return false;  // unknown direction byte
}

void EpollFrontEnd::queue_reply(int fd, Connection& conn,
                                const std::vector<std::uint8_t>& frame) {
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  flush_writes(fd, conn);
}

void EpollFrontEnd::flush_writes(int fd, Connection& conn) {
  while (conn.out_offset < conn.out.size()) {
    const ssize_t n = ::send(fd, conn.out.data() + conn.out_offset,
                             conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        update_interest(fd, true);  // resume when the socket drains
        return;
      }
      close_connection(fd);
      return;
    }
    conn.out_offset += static_cast<std::size_t>(n);
  }
  conn.out.clear();
  conn.out_offset = 0;
  update_interest(fd, false);
}

void EpollFrontEnd::update_interest(int fd, bool want_write) {
  epoll_event ev{};
  ev.events = want_write ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void EpollFrontEnd::connection_writable(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  flush_writes(fd, it->second);
}

void EpollFrontEnd::close_connection(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(fd);
}

}  // namespace fedpower::serve
