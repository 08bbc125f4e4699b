// Pluggable wire encodings for model payloads.
//
// The paper ships float32 weights (2.8 kB per transfer, §IV-C). For
// narrower uplinks the quantized codec packs the same model into ~1/4 of
// the bytes using affine int8 quantization; the compression ablation bench
// measures what that costs in learning quality.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace fedpower::fed {

class ModelCodec {
 public:
  virtual ~ModelCodec() = default;

  virtual std::vector<std::uint8_t> encode(
      std::span<const double> params) const = 0;

  /// Throws std::invalid_argument on malformed payloads.
  virtual std::vector<double> decode(
      std::span<const std::uint8_t> payload) const = 0;

  /// encode/decode into a caller-owned buffer, replacing its contents. The
  /// defaults wrap encode/decode, so a codec (or decorator) that overrides
  /// only those stays correct. A throwing decode_into leaves `out` as is.
  virtual void encode_into(std::span<const double> params,
                           std::vector<std::uint8_t>& out) const {
    out = encode(params);
  }
  virtual void decode_into(std::span<const std::uint8_t> payload,
                           std::vector<double>& out) const {
    out = decode(payload);
  }

  /// Payload size for a given parameter count.
  virtual std::size_t payload_size(std::size_t param_count) const = 0;

  virtual std::string name() const = 0;
};

/// Little-endian IEEE-754 float32 (the paper's format); delegates to
/// nn/serialize.hpp.
class Float32Codec final : public ModelCodec {
 public:
  std::vector<std::uint8_t> encode(
      std::span<const double> params) const override;
  std::vector<double> decode(
      std::span<const std::uint8_t> payload) const override;
  void encode_into(std::span<const double> params,
                   std::vector<std::uint8_t>& out) const override;
  void decode_into(std::span<const std::uint8_t> payload,
                   std::vector<double>& out) const override;
  std::size_t payload_size(std::size_t param_count) const override;
  std::string name() const override { return "float32"; }

  /// Process-wide instance (codecs are stateless).
  static const Float32Codec& instance();
};

/// Affine uint8 quantization with a per-payload [min, max] range.
/// Layout: "FPQ8" magic, u16 version, u16 reserved, u32 count,
/// f32 min, f32 max, then count bytes.
class QuantizedCodec final : public ModelCodec {
 public:
  std::vector<std::uint8_t> encode(
      std::span<const double> params) const override;
  std::vector<double> decode(
      std::span<const std::uint8_t> payload) const override;
  std::size_t payload_size(std::size_t param_count) const override;
  std::string name() const override { return "int8"; }

  /// Worst-case absolute round-trip error for values in [lo, hi].
  static double max_error(double lo, double hi) noexcept {
    return (hi - lo) / 255.0 / 2.0;
  }

  static const QuantizedCodec& instance();
};

}  // namespace fedpower::fed
