// Wire encoding of model parameters for federated transfers.
//
// Training happens in double precision, but parameters cross the (simulated)
// network as little-endian float32 with a small header. The paper's
// 687-parameter policy network (5→32→15) serializes to 2760 bytes, matching
// the 2.8 kB per transfer reported in §IV-C.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fedpower::nn {

/// Serialized model payload header layout:
///   bytes 0..3  magic "FPNN"
///   bytes 4..5  format version (currently 1), little-endian
///   bytes 6..7  reserved (zero)
///   bytes 8..11 parameter count, little-endian uint32
///   bytes 12..  parameters as little-endian IEEE-754 float32
inline constexpr std::size_t kPayloadHeaderBytes = 12;
inline constexpr std::uint16_t kPayloadVersion = 1;

/// Encodes parameters as a float32 payload.
std::vector<std::uint8_t> encode_parameters(std::span<const double> params);

/// Decodes a payload produced by encode_parameters.
/// Throws std::invalid_argument on malformed input (bad magic, truncated
/// data, wrong version, or length mismatch).
std::vector<double> decode_parameters(std::span<const std::uint8_t> payload);

/// The two calls above into a caller-owned buffer, replacing its contents,
/// so a buffer reused across calls stops allocating. A rejected payload
/// leaves `out` untouched.
void encode_parameters_into(std::span<const double> params,
                            std::vector<std::uint8_t>& out);
void decode_parameters_into(std::span<const std::uint8_t> payload,
                            std::vector<double>& out);

/// Size in bytes of the payload for a model with the given parameter count.
std::size_t payload_size(std::size_t param_count) noexcept;

}  // namespace fedpower::nn
