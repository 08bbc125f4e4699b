// Serve-wire framing goldens (wire.hpp): the u32 LE length of (direction
// byte + payload), the direction byte, then the payload — independent of
// host byte order, for every direction the wire speaks.
#include "serve/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace fedpower::serve {
namespace {

TEST(TcpFraming, GoldenBytesAreLittleEndian) {
  const std::vector<std::uint8_t> fetch =
      encode_frame(kFetchDirection, std::vector<std::uint8_t>{0xAA, 0xBB});
  EXPECT_EQ(fetch, (std::vector<std::uint8_t>{0x03, 0x00, 0x00, 0x00, 0x01,
                                              0xAA, 0xBB}));
  const std::vector<std::uint8_t> empty_uplink =
      encode_frame(kUplinkDirection, std::vector<std::uint8_t>{});
  EXPECT_EQ(empty_uplink,
            (std::vector<std::uint8_t>{0x01, 0x00, 0x00, 0x00, 0x00}));
  const std::vector<std::uint8_t> resume =
      encode_frame(kResumeDirection, std::vector<std::uint8_t>{0x7F});
  EXPECT_EQ(resume,
            (std::vector<std::uint8_t>{0x02, 0x00, 0x00, 0x00, 0x02, 0x7F}));
  // A payload past 255 bytes carries into the second length byte.
  const std::vector<std::uint8_t> long_uplink =
      encode_frame(kUplinkDirection, std::vector<std::uint8_t>(0x1FF, 0x5A));
  ASSERT_EQ(long_uplink.size(), 4u + 0x200u);
  EXPECT_EQ(long_uplink[0], 0x00);
  EXPECT_EQ(long_uplink[1], 0x02);
  EXPECT_EQ(long_uplink[2], 0x00);
  EXPECT_EQ(long_uplink[3], 0x00);
  EXPECT_EQ(long_uplink[4], kUplinkDirection);
}

TEST(TcpFraming, U32RoundTrip) {
  std::uint8_t bytes[4];
  store_u32_le(0x12345678u, bytes);
  EXPECT_EQ(bytes[0], 0x78);
  EXPECT_EQ(bytes[1], 0x56);
  EXPECT_EQ(bytes[2], 0x34);
  EXPECT_EQ(bytes[3], 0x12);
  EXPECT_EQ(load_u32_le(bytes), 0x12345678u);
  store_u32_le(0u, bytes);
  EXPECT_EQ(load_u32_le(bytes), 0u);
  store_u32_le(0xFFFFFFFFu, bytes);
  EXPECT_EQ(load_u32_le(bytes), 0xFFFFFFFFu);
}

}  // namespace
}  // namespace fedpower::serve
