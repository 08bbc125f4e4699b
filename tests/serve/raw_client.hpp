// Test helpers shared by the serve and tcpchaos suites: a minimal blocking
// client that speaks raw serve-wire frames over the shared socket
// primitives (so tests can send malformed or partial frames that
// ServeClient never would), plus the uplink/ack and polling helpers.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "fed/codec.hpp"
#include "serve/socket_io.hpp"
#include "serve/wire.hpp"

namespace fedpower::serve::testkit {

class RawClient {
 public:
  explicit RawClient(std::uint16_t port)
      : fd_(connect_tcp("127.0.0.1", port, 5.0)) {
    if (fd_ < 0) throw std::runtime_error("raw client: connect");
  }
  ~RawClient() { close(); }
  RawClient(const RawClient&) = delete;
  RawClient& operator=(const RawClient&) = delete;

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  void send_bytes(std::span<const std::uint8_t> data) {
    if (!write_all(fd_, data.data(), data.size()))
      throw std::runtime_error("raw client: send");
  }

  /// Reads one reply frame; returns its payload (direction byte stripped).
  std::vector<std::uint8_t> recv_frame(std::uint8_t& direction) {
    std::array<std::uint8_t, 4> head{};
    recv_exact(head.data(), head.size());
    const std::uint32_t len = load_u32_le(head.data());
    if (len == 0) throw std::runtime_error("raw client: zero frame");
    std::vector<std::uint8_t> body(len);
    recv_exact(body.data(), body.size());
    direction = body[0];
    return {body.begin() + 1, body.end()};
  }

  /// Blocks until the peer closes the connection (EOF).
  bool peer_closed() {
    std::uint8_t byte = 0;
    return read_some(fd_, &byte, 1) == 0;
  }

 private:
  void recv_exact(std::uint8_t* out, std::size_t n) {
    if (read_exact(fd_, out, n) != ReadStatus::kOk)
      throw std::runtime_error("raw client: recv");
  }

  int fd_ = -1;
};

inline std::vector<std::uint8_t> uplink_frame(
    std::uint32_t client, std::uint64_t base_version,
    const std::vector<double>& model) {
  UplinkHeader header;
  header.client = client;
  header.base_version = base_version;
  return encode_frame(
      kUplinkDirection,
      encode_uplink(header, fed::Float32Codec::instance().encode(model)));
}

inline std::vector<std::uint8_t> fetch_frame() {
  return encode_frame(kFetchDirection, {});
}

/// Sends one uplink and waits for the 1-byte enqueue ack, which the loop
/// writes only after the frame reached the shard queues.
inline void upload_and_ack(RawClient& client, std::uint32_t index,
                           std::uint64_t base_version,
                           const std::vector<double>& model) {
  client.send_bytes(uplink_frame(index, base_version, model));
  std::uint8_t direction = 0xFF;
  const std::vector<std::uint8_t> ack = client.recv_frame(direction);
  ASSERT_EQ(direction, kUplinkDirection);
  ASSERT_EQ(ack, (std::vector<std::uint8_t>{0}));
}

/// Polls `pred` for up to ~4 s.
template <typename Predicate>
bool eventually(Predicate&& pred) {
  for (int i = 0; i < 800; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

}  // namespace fedpower::serve::testkit
