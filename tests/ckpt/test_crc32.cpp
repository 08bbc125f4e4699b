#include "ckpt/crc32.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace fedpower::ckpt {
namespace {

/// The bytewise table-free definition: CRC-32/ISO-HDLC, reflected
/// polynomial 0xEDB88320, initial value and final XOR 0xFFFFFFFF.
std::uint32_t reference_crc32(std::span<const std::uint8_t> data) {
  std::uint32_t c = 0xffffffffu;
  for (const std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(bytes_of("The quick brown fox jumps over the lazy dog")),
            0x414FA339u);
}

TEST(Crc32, GeneratedBuffersMatchTheBitwiseDefinition) {
  // Random lengths 0-4099 at every offset 0-7 into one buffer, so each
  // length starts both aligned and unaligned, and a streamed split gives
  // the one-shot value.
  util::Rng rng(0xc4c32);
  std::vector<std::uint8_t> buffer(4099 + 8);
  for (std::uint8_t& b : buffer)
    b = static_cast<std::uint8_t>(rng.uniform_index(256));
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t length =
        trial < 17 ? static_cast<std::size_t>(trial)
                   : static_cast<std::size_t>(rng.uniform_index(4100));
    const std::size_t offset = static_cast<std::size_t>(trial % 8);
    const auto data = std::span(buffer).subspan(offset, length);
    const std::uint32_t expected = reference_crc32(data);
    ASSERT_EQ(crc32(data), expected) << length << " bytes at " << offset;
    const std::size_t split =
        static_cast<std::size_t>(rng.uniform_index(length + 1));
    EXPECT_EQ(crc32_update(crc32(data.first(split)), data.subspan(split)),
              expected)
        << length << " bytes split at " << split;
  }
}

}  // namespace
}  // namespace fedpower::ckpt
