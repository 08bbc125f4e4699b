// Byte parity of the bulk float32 codec against a byte-at-a-time reference
// kept here: the wire format is the reference's, so the bulk encoder must
// write exactly its bytes and the bulk decoder must produce exactly its
// bits, on hostile values and hostile payloads alike.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "fed/codec.hpp"
#include "nn/serialize.hpp"
#include "util/rng.hpp"

namespace fedpower::nn {
namespace {

// --- reference codec: one byte at a time, shifts only --------------------

void ref_put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8)
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
}

std::vector<std::uint8_t> ref_encode(const std::vector<double>& params) {
  std::vector<std::uint8_t> out = {'F', 'P', 'N', 'N'};
  out.push_back(static_cast<std::uint8_t>(kPayloadVersion & 0xff));
  out.push_back(static_cast<std::uint8_t>(kPayloadVersion >> 8));
  out.push_back(0);
  out.push_back(0);
  ref_put_u32(out, static_cast<std::uint32_t>(params.size()));
  for (const double p : params)
    ref_put_u32(out, std::bit_cast<std::uint32_t>(static_cast<float>(p)));
  return out;
}

std::uint32_t ref_get_u32(const std::vector<std::uint8_t>& in,
                          std::size_t offset) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | in[offset + static_cast<std::size_t>(i)];
  return v;
}

/// Decodes a well-formed payload's parameters.
std::vector<double> ref_decode(const std::vector<std::uint8_t>& payload) {
  const std::uint32_t count = ref_get_u32(payload, 8);
  std::vector<double> params(count);
  for (std::uint32_t i = 0; i < count; ++i)
    params[i] = static_cast<double>(std::bit_cast<float>(
        ref_get_u32(payload, kPayloadHeaderBytes + i * sizeof(float))));
  return params;
}

/// Bitwise equality, so NaN payloads and signed zeros are compared too.
void expect_same_bits(const std::vector<double>& a,
                      const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "at index " << i;
}

/// Doubles that stress the float32 cast: NaNs with payload bits, both
/// infinities and zeros, double and float subnormals, values outside the
/// float range, and ordinary weights.
std::vector<double> hostile_values(util::Rng& rng, std::size_t count) {
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    switch (rng.uniform_index(9)) {
      case 0:  // quiet or signalling NaN with random payload and sign
        values.push_back(std::bit_cast<double>(
            0x7ff0000000000000ULL | (rng.next_u64() & 0x800fffffffffffffULL) |
            1ULL));
        break;
      case 1:
        values.push_back(rng.uniform() < 0.5
                             ? std::numeric_limits<double>::infinity()
                             : -std::numeric_limits<double>::infinity());
        break;
      case 2:
        values.push_back(rng.uniform() < 0.5 ? 0.0 : -0.0);
        break;
      case 3:  // double subnormal: flushes to a signed float zero
        values.push_back(std::bit_cast<double>(
            rng.next_u64() & 0x800fffffffffffffULL));
        break;
      case 4:  // float subnormal range
        values.push_back(rng.uniform(-1.0, 1.0) * 1e-39);
        break;
      case 5:  // beyond float range: rounds to an infinity
        values.push_back(rng.uniform(-1.0, 1.0) * 1e300);
        break;
      case 6:  // just around FLT_MAX
        values.push_back(static_cast<double>(
                             std::numeric_limits<float>::max()) *
                         rng.uniform(0.999, 1.001));
        break;
      default:  // an ordinary weight
        values.push_back(rng.uniform(-4.0, 4.0));
        break;
    }
  }
  return values;
}

TEST(SerializeParity, EncodeMatchesByteAtATimeReference) {
  util::Rng rng(2026);
  std::vector<std::uint8_t> reused;
  for (const std::size_t count : {0u, 1u, 2u, 3u, 7u, 64u, 687u, 1000u}) {
    const std::vector<double> params = hostile_values(rng, count);
    const std::vector<std::uint8_t> expected = ref_encode(params);
    EXPECT_EQ(encode_parameters(params), expected) << count << " params";
    encode_parameters_into(params, reused);  // shrinks and grows the buffer
    EXPECT_EQ(reused, expected) << count << " params";
    fed::Float32Codec::instance().encode_into(params, reused);
    EXPECT_EQ(reused, expected) << count << " params";
  }
}

TEST(SerializeParity, DecodeMatchesByteAtATimeReference) {
  util::Rng rng(7);
  std::vector<double> reused = {1.0, 2.0, 3.0};
  for (const std::size_t count : {0u, 1u, 5u, 687u, 1000u}) {
    // Random float bits cover every class: NaNs (signalling ones too),
    // infinities, zeros, subnormals and normals.
    std::vector<std::uint8_t> payload =
        encode_parameters(std::vector<double>(count));
    for (std::size_t i = kPayloadHeaderBytes; i < payload.size(); ++i)
      payload[i] = static_cast<std::uint8_t>(rng.next_u64());
    const std::vector<double> expected = ref_decode(payload);
    expect_same_bits(decode_parameters(payload), expected);
    decode_parameters_into(payload, reused);
    expect_same_bits(reused, expected);
    fed::Float32Codec::instance().decode_into(payload, reused);
    expect_same_bits(reused, expected);
  }
}

TEST(SerializeParity, RoundTripMatchesReference) {
  util::Rng rng(11);
  const std::vector<double> params = hostile_values(rng, 4096);
  std::vector<std::uint8_t> wire;
  std::vector<double> decoded;
  encode_parameters_into(params, wire);
  decode_parameters_into(wire, decoded);
  expect_same_bits(decoded, ref_decode(ref_encode(params)));
}

/// The message the by-value decoder throws for `payload`.
std::string by_value_error(const std::vector<std::uint8_t>& payload) {
  try {
    (void)decode_parameters(payload);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "the by-value decoder accepted a hostile payload";
  return {};
}

/// `payload` with byte `at` replaced by `value`.
std::vector<std::uint8_t> patched(std::vector<std::uint8_t> payload,
                                  std::size_t at, std::uint8_t value) {
  payload.at(at) = value;
  return payload;
}

TEST(SerializeParity, HostilePayloadsThrowLikeTheByValuePath) {
  const std::vector<std::uint8_t> good =
      encode_parameters(std::vector<double>{0.5, -1.5, 2.0});
  std::vector<std::vector<std::uint8_t>> hostile;
  for (std::size_t n = 0; n < kPayloadHeaderBytes; ++n)  // truncated header
    hostile.emplace_back(good.begin(),
                         good.begin() + static_cast<std::ptrdiff_t>(n));
  hostile.push_back(patched(good, 8, 4));  // claims 4 parameters, carries 3
  hostile.push_back(patched(good, 11, 0xff));  // claims ~4 billion
  hostile.push_back(patched(good, 8, 2));  // claims 2: trailing bytes
  hostile.push_back(good);
  hostile.back().push_back(0);  // one trailing byte
  hostile.emplace_back(good.begin(), good.end() - 1);  // cut short
  for (const std::size_t at : {0u, 1u, 2u, 3u})  // bad magic
    hostile.push_back(patched(good, at, 'x'));
  hostile.push_back(patched(good, 4, 2));  // unsupported versions
  hostile.push_back(patched(good, 5, 1));

  const std::vector<double> sentinel = {9.0, 8.0, 7.0, 6.0};
  for (std::size_t h = 0; h < hostile.size(); ++h) {
    const std::string expected = by_value_error(hostile[h]);
    std::vector<double> reused = sentinel;
    try {
      decode_parameters_into(hostile[h], reused);
      ADD_FAILURE() << "hostile payload " << h << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), expected) << "hostile payload " << h;
    }
    EXPECT_EQ(reused, sentinel) << "a rejected decode touched the buffer";
    reused = sentinel;
    EXPECT_THROW(fed::Float32Codec::instance().decode_into(hostile[h], reused),
                 std::invalid_argument);
    EXPECT_EQ(reused, sentinel);
  }
}

}  // namespace
}  // namespace fedpower::nn
