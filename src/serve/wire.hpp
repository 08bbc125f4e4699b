// Serve-subsystem wire format.
//
// Every frame on the wire is a u32 LE length, a direction byte and the
// payload; the length counts the direction byte plus the payload, and no
// peer accepts a length above kMaxFrameBytes. All integers are explicit
// little-endian, independent of host byte order.
//
// An uplink frame's payload carries a 16-byte header in front of the codec
// bytes so the front end can route the frame to the right shard without
// decoding the model:
//
//   bytes 0..3   u32 LE  client index
//   bytes 4..11  u64 LE  base version (server version the client trained
//                        from; staleness = server version - base version)
//   bytes 12..15 u32 LE  sample-count weight
//   bytes 16..   codec-encoded model
//
// The server acknowledges an uplink with a 1-byte status payload (0 =
// enqueued). A downlink (fetch) frame's request payload is empty; the
// reply payload is a u64 LE server version followed by the codec-encoded
// global model.
//
// A third direction byte (2) carries the session-resume handshake
// (DESIGN.md §14): after reconnecting, a client announces itself with its
// client index and the last round it saw acknowledged, and the front end
// answers with the current server version and committed-round count. The
// handshake is what lets the front end tell a rejoining client apart from
// a protocol error, and its reply is what lets a killed-and-respawned
// client rejoin the round schedule without any local state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace fedpower::serve {

/// Largest frame either side will accept (protocol sanity bound).
inline constexpr std::size_t kMaxFrameBytes = 64 * 1024 * 1024;

inline constexpr std::size_t kUplinkHeaderBytes = 16;

// Frame direction bytes on the serve wire. 0/1 mirror fed::Direction; 2 is
// the serve-only session-resume handshake.
inline constexpr std::uint8_t kUplinkDirection = 0;
inline constexpr std::uint8_t kFetchDirection = 1;
inline constexpr std::uint8_t kResumeDirection = 2;

inline constexpr std::size_t kResumeRequestBytes = 12;  ///< u32 + u64
inline constexpr std::size_t kResumeReplyBytes = 16;    ///< u64 + u64

inline void store_u32_le(std::uint32_t v, std::uint8_t* out) noexcept {
  for (std::size_t i = 0; i < 4; ++i)
    out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}

[[nodiscard]] inline std::uint32_t load_u32_le(
    const std::uint8_t* in) noexcept {
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

inline void store_u64_le(std::uint64_t v, std::uint8_t* out) noexcept {
  for (std::size_t i = 0; i < 8; ++i)
    out[i] = static_cast<std::uint8_t>((v >> (8 * i)) & 0xFF);
}

[[nodiscard]] inline std::uint64_t load_u64_le(
    const std::uint8_t* in) noexcept {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

struct UplinkHeader {
  std::uint32_t client = 0;
  std::uint64_t base_version = 0;
  std::uint32_t weight = 1;
};

/// Builds an uplink frame payload: header + codec bytes.
[[nodiscard]] inline std::vector<std::uint8_t> encode_uplink(
    const UplinkHeader& header, std::span<const std::uint8_t> model) {
  std::vector<std::uint8_t> payload(kUplinkHeaderBytes + model.size());
  store_u32_le(header.client, payload.data());
  store_u64_le(header.base_version, payload.data() + 4);
  store_u32_le(header.weight, payload.data() + 12);
  std::copy(model.begin(), model.end(),
            payload.begin() + kUplinkHeaderBytes);
  return payload;
}

/// Reads the header off an uplink frame payload. Returns false when the
/// payload is too short to carry one.
[[nodiscard]] inline bool decode_uplink_header(
    std::span<const std::uint8_t> payload, UplinkHeader& header) noexcept {
  if (payload.size() < kUplinkHeaderBytes) return false;
  header.client = load_u32_le(payload.data());
  header.base_version = load_u64_le(payload.data() + 4);
  header.weight = load_u32_le(payload.data() + 12);
  return true;
}

/// Builds a complete wire frame: the u32 LE length of (direction byte +
/// payload), the direction byte, the payload.
[[nodiscard]] inline std::vector<std::uint8_t> encode_frame(
    std::uint8_t direction, std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame(4);
  frame.reserve(4 + 1 + payload.size());
  store_u32_le(static_cast<std::uint32_t>(1 + payload.size()), frame.data());
  frame.push_back(direction);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

/// Session-resume handshake request: who is rejoining and the last round
/// the client saw acknowledged (informational; the reply is authoritative).
struct ResumeRequest {
  std::uint32_t client = 0;
  std::uint64_t last_acked_round = 0;
};

[[nodiscard]] inline std::vector<std::uint8_t> encode_resume_request(
    const ResumeRequest& request) {
  std::vector<std::uint8_t> payload(kResumeRequestBytes);
  store_u32_le(request.client, payload.data());
  store_u64_le(request.last_acked_round, payload.data() + 4);
  return payload;
}

/// Strict decode: a resume payload is exactly kResumeRequestBytes, so a
/// malformed frame is a protocol error, not a partial parse.
[[nodiscard]] inline bool decode_resume_request(
    std::span<const std::uint8_t> payload, ResumeRequest& request) noexcept {
  if (payload.size() != kResumeRequestBytes) return false;
  request.client = load_u32_le(payload.data());
  request.last_acked_round = load_u64_le(payload.data() + 4);
  return true;
}

/// Session-resume reply: where the server actually is. A rejoining client
/// trusts these over anything it remembers from before the disconnect.
struct ResumeReply {
  std::uint64_t version = 0;          ///< current global-model version
  std::uint64_t rounds_committed = 0; ///< committed-round count
};

[[nodiscard]] inline std::vector<std::uint8_t> encode_resume_reply(
    const ResumeReply& reply) {
  std::vector<std::uint8_t> payload(kResumeReplyBytes);
  store_u64_le(reply.version, payload.data());
  store_u64_le(reply.rounds_committed, payload.data() + 8);
  return payload;
}

[[nodiscard]] inline bool decode_resume_reply(
    std::span<const std::uint8_t> payload, ResumeReply& reply) noexcept {
  if (payload.size() != kResumeReplyBytes) return false;
  reply.version = load_u64_le(payload.data());
  reply.rounds_committed = load_u64_le(payload.data() + 8);
  return true;
}

/// Builds a fetch-reply payload: u64 LE version + codec bytes.
[[nodiscard]] inline std::vector<std::uint8_t> encode_fetch_reply(
    std::uint64_t version, std::span<const std::uint8_t> model) {
  std::vector<std::uint8_t> payload(8 + model.size());
  store_u64_le(version, payload.data());
  std::copy(model.begin(), model.end(), payload.begin() + 8);
  return payload;
}

}  // namespace fedpower::serve
