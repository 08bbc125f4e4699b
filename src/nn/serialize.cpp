#include "nn/serialize.hpp"

#include <bit>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/assert.hpp"

namespace fedpower::nn {

// The payload is little-endian, so on a little-endian host every field is
// its in-memory representation and can be copied with memcpy.
static_assert(std::endian::native == std::endian::little,
              "the float32 wire codec copies host-order bytes");

namespace {

constexpr std::uint8_t kMagic[4] = {'F', 'P', 'N', 'N'};

template <typename T>
T load(const std::uint8_t* at) noexcept {
  T value;
  std::memcpy(&value, at, sizeof value);
  return value;
}

template <typename T>
void store(std::uint8_t* at, T value) noexcept {
  std::memcpy(at, &value, sizeof value);
}

}  // namespace

std::size_t payload_size(std::size_t param_count) noexcept {
  return kPayloadHeaderBytes + param_count * sizeof(float);
}

void encode_parameters_into(std::span<const double> params,
                            std::vector<std::uint8_t>& out) {
  FEDPOWER_EXPECTS(params.size() <= std::numeric_limits<std::uint32_t>::max());
  out.resize(payload_size(params.size()));
  std::uint8_t* at = out.data();
  std::memcpy(at, kMagic, sizeof kMagic);
  store<std::uint16_t>(at + 4, kPayloadVersion);
  store<std::uint16_t>(at + 6, 0);  // reserved
  store(at + 8, static_cast<std::uint32_t>(params.size()));
  at += kPayloadHeaderBytes;
  for (std::size_t i = 0; i < params.size(); ++i)
    store(at + i * sizeof(float), static_cast<float>(params[i]));
}

void decode_parameters_into(std::span<const std::uint8_t> payload,
                            std::vector<double>& out) {
  if (payload.size() < kPayloadHeaderBytes)
    throw std::invalid_argument("model payload truncated (header)");
  if (std::memcmp(payload.data(), kMagic, sizeof kMagic) != 0)
    throw std::invalid_argument("model payload has bad magic");
  if (load<std::uint16_t>(payload.data() + 4) != kPayloadVersion)
    throw std::invalid_argument("model payload has unsupported version");
  const auto count = load<std::uint32_t>(payload.data() + 8);
  // Distinct messages for the two corruption directions: a short payload
  // means the transfer/file was cut off, extra bytes mean trailing garbage
  // (e.g. a double write or a torn copy).
  if (payload.size() < payload_size(count))
    throw std::invalid_argument(
        "model payload truncated: header claims " + std::to_string(count) +
        " parameter(s) (" + std::to_string(payload_size(count)) +
        " bytes), got " + std::to_string(payload.size()));
  if (payload.size() > payload_size(count))
    throw std::invalid_argument(
        "model payload has trailing garbage: " +
        std::to_string(payload.size() - payload_size(count)) +
        " byte(s) past the " + std::to_string(count) + "-parameter payload");
  out.resize(count);
  const std::uint8_t* at = payload.data() + kPayloadHeaderBytes;
  for (std::size_t i = 0; i < count; ++i)
    out[i] = static_cast<double>(load<float>(at + i * sizeof(float)));
}

std::vector<std::uint8_t> encode_parameters(std::span<const double> params) {
  std::vector<std::uint8_t> out;
  encode_parameters_into(params, out);
  return out;
}

std::vector<double> decode_parameters(std::span<const std::uint8_t> payload) {
  std::vector<double> out;
  decode_parameters_into(payload, out);
  return out;
}

}  // namespace fedpower::nn
