#include "ckpt/crc32.hpp"

#include <array>
#include <cstring>

namespace fedpower::ckpt {

namespace {

using Table = std::array<std::uint32_t, 256>;

/// Slicing-by-8 tables: kTables[0] is the bytewise table, and kTables[k][b]
/// is the CRC of byte b followed by k zero bytes, so eight table lookups
/// advance the CRC over eight bytes at once.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  return tables;
}

constexpr std::array<Table, 8> kTables = make_tables();

/// The next four bytes as a little-endian word (the build requires a
/// little-endian host; binary_io.cpp).
std::uint32_t load32(const std::uint8_t* p) noexcept {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc,
                           std::span<const std::uint8_t> data) noexcept {
  std::uint32_t c = crc ^ 0xffffffffu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load32(p);
    const std::uint32_t hi = load32(p + 4);
    c = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
        kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
        kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = kTables[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::uint32_t crc32(std::span<const std::uint8_t> data) noexcept {
  return crc32_update(0, data);
}

}  // namespace fedpower::ckpt
