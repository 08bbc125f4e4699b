#include "fed/codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "util/assert.hpp"

namespace fedpower::fed {

std::vector<std::uint8_t> Float32Codec::encode(
    std::span<const double> params) const {
  return nn::encode_parameters(params);
}

std::vector<double> Float32Codec::decode(
    std::span<const std::uint8_t> payload) const {
  return nn::decode_parameters(payload);
}

void Float32Codec::encode_into(std::span<const double> params,
                               std::vector<std::uint8_t>& out) const {
  nn::encode_parameters_into(params, out);
}

void Float32Codec::decode_into(std::span<const std::uint8_t> payload,
                               std::vector<double>& out) const {
  nn::decode_parameters_into(payload, out);
}

std::size_t Float32Codec::payload_size(std::size_t param_count) const {
  return nn::payload_size(param_count);
}

const Float32Codec& Float32Codec::instance() {
  static const Float32Codec codec;
  return codec;
}

namespace {

constexpr std::uint8_t kQuantMagic[4] = {'F', 'P', 'Q', '8'};
constexpr std::uint16_t kQuantVersion = 1;
constexpr std::size_t kQuantHeaderBytes = 4 + 2 + 2 + 4 + 4 + 4;

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
}

void put_f32(std::vector<std::uint8_t>& out, float v) {
  put_u32(out, std::bit_cast<std::uint32_t>(v));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t offset) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | in[offset + static_cast<std::size_t>(i)];
  return v;
}

float get_f32(std::span<const std::uint8_t> in, std::size_t offset) {
  return std::bit_cast<float>(get_u32(in, offset));
}

}  // namespace

std::size_t QuantizedCodec::payload_size(std::size_t param_count) const {
  return kQuantHeaderBytes + param_count;
}

std::vector<std::uint8_t> QuantizedCodec::encode(
    std::span<const double> params) const {
  FEDPOWER_EXPECTS(params.size() <= std::numeric_limits<std::uint32_t>::max());
  double lo = 0.0;
  double hi = 0.0;
  if (!params.empty()) {
    lo = *std::min_element(params.begin(), params.end());
    hi = *std::max_element(params.begin(), params.end());
  }
  // Degenerate constant payload: widen the range by an amount that is
  // still representable after the bounds are stored as float32.
  if (hi <= lo) hi = lo + std::max(1e-6, std::abs(lo) * 1e-5);

  std::vector<std::uint8_t> out;
  out.reserve(payload_size(params.size()));
  out.insert(out.end(), std::begin(kQuantMagic), std::end(kQuantMagic));
  put_u16(out, kQuantVersion);
  put_u16(out, 0);
  put_u32(out, static_cast<std::uint32_t>(params.size()));
  put_f32(out, static_cast<float>(lo));
  put_f32(out, static_cast<float>(hi));
  const double scale = 255.0 / (hi - lo);
  for (const double p : params) {
    const double clamped = std::clamp(p, lo, hi);
    const double q = (clamped - lo) * scale;
    out.push_back(static_cast<std::uint8_t>(q + 0.5));
  }
  return out;
}

std::vector<double> QuantizedCodec::decode(
    std::span<const std::uint8_t> payload) const {
  if (payload.size() < kQuantHeaderBytes)
    throw std::invalid_argument("quantized payload truncated (header)");
  if (std::memcmp(payload.data(), kQuantMagic, sizeof kQuantMagic) != 0)
    throw std::invalid_argument("quantized payload has bad magic");
  if ((get_u32(payload, 4) & 0xffff) != kQuantVersion)  // u16 version
    throw std::invalid_argument("quantized payload has unsupported version");
  const std::uint32_t count = get_u32(payload, 8);
  if (payload.size() != payload_size(count))
    throw std::invalid_argument("quantized payload length mismatch");
  const double lo = static_cast<double>(get_f32(payload, 12));
  const double hi = static_cast<double>(get_f32(payload, 16));
  if (!(hi > lo))
    throw std::invalid_argument("quantized payload has invalid range");
  const double scale = (hi - lo) / 255.0;
  std::vector<double> params(count);
  for (std::uint32_t i = 0; i < count; ++i)
    params[i] = lo + scale * payload[kQuantHeaderBytes + i];
  return params;
}

const QuantizedCodec& QuantizedCodec::instance() {
  static const QuantizedCodec codec;
  return codec;
}

}  // namespace fedpower::fed
