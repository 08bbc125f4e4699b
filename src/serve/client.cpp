#include "serve/client.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "fed/transport.hpp"
#include "serve/socket_io.hpp"
#include "util/assert.hpp"

namespace fedpower::serve {

namespace {

using fed::TransportError;

/// Maps a failed socket primitive (cause in errno) onto TransportError; an
/// expired SO_RCVTIMEO/SO_SNDTIMEO bound reads as a timeout.
[[noreturn]] void throw_io(const char* what) {
  const int err = errno;
  if (err == EAGAIN || err == EWOULDBLOCK)
    throw TransportError(std::string("serve client: ") + what + " timed out");
  throw TransportError(std::string("serve client: ") + what +
                       " failed: " + std::strerror(err));
}

/// Reads `size` bytes of a reply frame. Only at a frame boundary
/// (`frame_start`) is an orderly close a plain peer close; anywhere else
/// the peer cut the frame short.
void read_reply(int fd, std::uint8_t* data, std::size_t size,
                bool frame_start) {
  switch (read_exact(fd, data, size)) {
    case ReadStatus::kOk:
      return;
    case ReadStatus::kError:
      throw_io("read");
    case ReadStatus::kClosed:
      if (frame_start) throw TransportError("serve client: peer closed");
      break;
    case ReadStatus::kTruncated:
      break;
  }
  throw TransportError("serve client: truncated frame");
}

}  // namespace

ServeClient::ServeClient(ServeClientConfig config)
    : config_(std::move(config)), jitter_(config_.jitter_seed) {
  FEDPOWER_EXPECTS(config_.max_attempts >= 1);
  FEDPOWER_EXPECTS(config_.backoff_initial_s >= 0.0);
  FEDPOWER_EXPECTS(config_.backoff_multiplier >= 1.0);
}

ServeClient::~ServeClient() { close_socket(); }

void ServeClient::close_socket() noexcept {
  if (socket_ >= 0) {
    ::close(socket_);
    socket_ = -1;
  }
  resumed_ = false;
}

void ServeClient::connect_socket() {
  const int fd = connect_tcp(config_.host, config_.port,
                             config_.connect_timeout_s);
  if (fd < 0) {
    if (errno == EINVAL)
      throw TransportError("serve client: bad address " + config_.host);
    if (errno == ETIMEDOUT)
      throw TransportError("serve client: connect timed out");
    throw_io("connect");
  }
  if (!set_io_timeouts(fd, config_.io_timeout_s)) {
    const int err = errno;
    ::close(fd);
    errno = err;
    throw_io("set timeouts");
  }
  if (ever_connected_) ++reconnects_;
  ever_connected_ = true;
  socket_ = fd;
}

std::vector<std::uint8_t> ServeClient::read_frame(
    std::uint8_t expect_direction) {
  std::uint8_t header[4];
  read_reply(socket_, header, sizeof header, true);
  const std::uint32_t frame_len = load_u32_le(header);
  // Checked before the length is trusted for allocation.
  if (frame_len > kMaxFrameBytes)
    throw TransportError("serve client: oversized frame");
  if (frame_len == 0) throw TransportError("serve client: empty frame");
  std::vector<std::uint8_t> body(frame_len);
  read_reply(socket_, body.data(), body.size(), false);
  if (body[0] != expect_direction)
    throw TransportError("serve client: direction mismatch");
  return {body.begin() + 1, body.end()};
}

std::vector<std::uint8_t> ServeClient::request(
    std::uint8_t direction, std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> frame = encode_frame(direction, payload);
  if (!write_all(socket_, frame.data(), frame.size())) throw_io("send");
  return read_frame(direction);
}

ResumeReply ServeClient::ensure_session() {
  if (socket_ < 0) connect_socket();
  if (resumed_) {
    ResumeReply cached;
    cached.version = last_resume_version_;
    return cached;
  }
  ResumeRequest hello;
  hello.client = config_.client_id;
  hello.last_acked_round = last_acked_round_;
  const std::vector<std::uint8_t> payload =
      request(kResumeDirection, encode_resume_request(hello));
  ResumeReply reply;
  if (!decode_resume_reply(payload, reply))
    throw TransportError("serve client: malformed resume reply");
  resumed_ = true;
  last_resume_version_ = reply.version;
  return reply;
}

void ServeClient::backoff(std::size_t attempt) {
  if (config_.backoff_initial_s <= 0.0) return;
  double bound = config_.backoff_initial_s;
  for (std::size_t i = 1; i < attempt; ++i)
    bound = std::min(bound * config_.backoff_multiplier,
                     config_.backoff_max_s);
  // Full jitter: sleep a uniform fraction of the exponential bound so a
  // fleet of clients knocked over together does not retry in lockstep.
  const double sleep_s = bound * jitter_.uniform();
  if (sleep_s > 0.0)
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_s));
}

ResumeReply ServeClient::resume() {
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      if (socket_ < 0) connect_socket();
      resumed_ = false;  // force a fresh handshake
      return ensure_session();
    } catch (const TransportError&) {
      close_socket();
      if (attempt >= config_.max_attempts) throw;
      ++retries_;
      backoff(attempt);
    }
  }
}

FetchResult ServeClient::fetch() {
  for (std::size_t attempt = 1;; ++attempt) {
    try {
      ensure_session();
      const std::vector<std::uint8_t> payload = request(kFetchDirection, {});
      if (payload.size() < 8)
        throw TransportError("serve client: short fetch reply");
      FetchResult result;
      result.version = load_u64_le(payload.data());
      result.model.assign(payload.begin() + 8, payload.end());
      return result;
    } catch (const TransportError&) {
      close_socket();
      if (attempt >= config_.max_attempts) throw;
      ++retries_;
      backoff(attempt);
    }
  }
}

bool ServeClient::upload(std::uint64_t base_version, std::uint32_t weight,
                         std::span<const std::uint8_t> model) {
  UplinkHeader header;
  header.client = config_.client_id;
  header.base_version = base_version;
  header.weight = weight;
  const std::vector<std::uint8_t> payload = encode_uplink(header, model);
  if (payload.size() + 1 > kMaxFrameBytes)
    throw TransportError("serve client: uplink too large");

  for (std::size_t attempt = 1;; ++attempt) {
    try {
      const ResumeReply session = ensure_session();
      if (session.version > base_version) {
        // The server committed past this uplink's base while we were
        // disconnected — either our earlier send landed (first-arrival
        // dedup would discard a re-send anyway) or the round closed
        // without us. Re-sending a stale-beyond-window update would only
        // burn bandwidth to be screened, so report "obsolete" and let the
        // caller fetch the new model.
        return false;
      }
      const std::vector<std::uint8_t> ack =
          request(kUplinkDirection, payload);
      if (ack.size() != 1 || ack[0] != 0)
        throw TransportError("serve client: uplink rejected");
      return true;
    } catch (const TransportError&) {
      // We cannot tell whether the uplink landed before the fault; the
      // server's first-arrival dedup makes the re-send idempotent, so
      // always retry delivery.
      close_socket();
      if (attempt >= config_.max_attempts) throw;
      ++retries_;
      backoff(attempt);
    }
  }
}

}  // namespace fedpower::serve
