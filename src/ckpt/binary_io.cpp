#include "ckpt/binary_io.hpp"

#include <bit>
#include <cstring>
#include <limits>

#include "util/assert.hpp"

namespace fedpower::ckpt {

// The scalar and bulk paths copy host memory verbatim, which is the
// little-endian encoding only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "ckpt binary I/O assumes a little-endian host");

template <class T>
void Writer::append_scalar(T v) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(&v);
  buffer_.insert(buffer_.end(), bytes, bytes + sizeof(T));
}

void Writer::u8(std::uint8_t v) { buffer_.push_back(v); }

void Writer::u16(std::uint16_t v) { append_scalar(v); }

void Writer::u32(std::uint32_t v) { append_scalar(v); }

void Writer::u64(std::uint64_t v) { append_scalar(v); }

void Writer::f64(double v) { append_scalar(v); }

void Writer::f32(float v) { append_scalar(v); }

void Writer::str(const std::string& s) {
  FEDPOWER_EXPECTS(s.size() <= std::numeric_limits<std::uint32_t>::max());
  u32(static_cast<std::uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void Writer::bytes(std::span<const std::uint8_t> data) {
  FEDPOWER_EXPECTS(data.size() <= std::numeric_limits<std::uint32_t>::max());
  u32(static_cast<std::uint32_t>(data.size()));
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void Writer::raw(std::span<const std::uint8_t> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

template <class T>
void Writer::append_vec(std::span<const T> v) {
  u64(v.size());
  append_block(v);
}

template <class T>
void Writer::append_block(std::span<const T> v) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(v.data());
  buffer_.insert(buffer_.end(), bytes, bytes + v.size_bytes());
}

void Writer::vec_f64(std::span<const double> v) { append_vec(v); }

void Writer::vec_f32(std::span<const float> v) { append_vec(v); }

void Writer::vec_u8(std::span<const std::uint8_t> v) { append_vec(v); }

void Writer::vec_u64(std::span<const std::uint64_t> v) { append_vec(v); }

void Writer::f64_block(std::span<const double> v) { append_block(v); }

bool Writer::f32_block(std::span<const double> v) {
  const std::size_t at = buffer_.size();
  buffer_.resize(at + v.size() * sizeof(float));
  std::uint8_t* dst = buffer_.data() + at;
  bool exact = true;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const float f = static_cast<float>(v[i]);
    // Narrowing keeps the sign of zero, so for anything but NaN == is a
    // bit compare here, and NaN is never == to itself.
    exact &= static_cast<double>(f) == v[i];
    std::memcpy(dst + i * sizeof(float), &f, sizeof(float));
  }
  return exact;
}

void Writer::truncate(std::size_t size) noexcept {
  FEDPOWER_EXPECTS(size <= buffer_.size());
  buffer_.resize(size);
}

void Reader::require(std::size_t n) const {
  if (remaining() < n)
    throw CorruptSnapshotError(
        "snapshot payload truncated: need " + std::to_string(n) +
        " more byte(s) at offset " + std::to_string(pos_) + ", have " +
        std::to_string(remaining()));
}

std::uint8_t Reader::u8() {
  require(1);
  return data_[pos_++];
}

template <class T>
T Reader::read_scalar() {
  require(sizeof(T));
  T v;
  std::memcpy(&v, data_.data() + pos_, sizeof(T));
  pos_ += sizeof(T);
  return v;
}

std::uint16_t Reader::u16() { return read_scalar<std::uint16_t>(); }

std::uint32_t Reader::u32() { return read_scalar<std::uint32_t>(); }

std::uint64_t Reader::u64() { return read_scalar<std::uint64_t>(); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

float Reader::f32() { return std::bit_cast<float>(u32()); }

std::string Reader::str() {
  const std::uint32_t n = u32();
  require(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::uint8_t> Reader::bytes() { return raw(u32()); }

std::vector<std::uint8_t> Reader::raw(std::size_t n) {
  require(n);
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() +
                                    static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

namespace {

/// Rejects element counts a truncated buffer cannot possibly hold, before
/// any allocation happens; written as a division so a forged count near
/// 2^64 cannot overflow the byte computation.
void check_count(std::uint64_t n, std::size_t elem_size,
                 std::size_t remaining) {
  if (n > remaining / elem_size)
    throw CorruptSnapshotError("snapshot payload truncated: vector claims " +
                               std::to_string(n) + " element(s) but only " +
                               std::to_string(remaining) + " byte(s) remain");
}

}  // namespace

template <class T>
std::vector<T> Reader::read_vec() {
  const std::uint64_t n = u64();
  check_count(n, sizeof(T), remaining());
  std::vector<T> out(static_cast<std::size_t>(n));
  copy_out(std::span<T>(out));
  return out;
}

template <class T>
void Reader::read_vec_into(std::span<T> out) {
  const std::uint64_t n = u64();
  if (n != out.size())
    throw CorruptSnapshotError("snapshot vector holds " + std::to_string(n) +
                               " element(s), expected " +
                               std::to_string(out.size()));
  copy_out(out);
}

template <class T>
void Reader::copy_out(std::span<T> out) {
  require(out.size_bytes());
  if (out.empty()) return;
  std::memcpy(out.data(), data_.data() + pos_, out.size_bytes());
  pos_ += out.size_bytes();
}

std::vector<double> Reader::vec_f64() { return read_vec<double>(); }

std::vector<float> Reader::vec_f32() { return read_vec<float>(); }

std::vector<std::uint8_t> Reader::vec_u8() {
  return read_vec<std::uint8_t>();
}

std::vector<std::uint64_t> Reader::vec_u64() {
  return read_vec<std::uint64_t>();
}

void Reader::vec_f32_into(std::span<float> out) { read_vec_into(out); }

void Reader::vec_u8_into(std::span<std::uint8_t> out) { read_vec_into(out); }

void Reader::vec_f64_into(std::vector<double>& out) {
  const std::uint64_t n = u64();
  check_count(n, sizeof(double), remaining());
  out.resize(static_cast<std::size_t>(n));
  copy_out(std::span<double>(out));
}

void Reader::f64_block_into(std::span<double> out) { copy_out(out); }

void Reader::f32_block_into(std::span<double> out) {
  require(out.size() * sizeof(float));
  const std::uint8_t* src = data_.data() + pos_;
  for (std::size_t i = 0; i < out.size(); ++i) {
    float f;
    std::memcpy(&f, src + i * sizeof(float), sizeof(float));
    out[i] = static_cast<double>(f);
  }
  pos_ += out.size() * sizeof(float);
}

void write_tag(Writer& out, const Tag& tag) {
  for (const char c : tag) out.u8(static_cast<std::uint8_t>(c));
}

void expect_tag(Reader& in, const Tag& tag, const char* component) {
  (void)expect_tag_of(in, {tag}, component);
}

std::size_t expect_tag_of(Reader& in, std::initializer_list<Tag> tags,
                          const char* component) {
  Tag got{};
  for (char& c : got) c = static_cast<char>(in.u8());
  std::string expected;
  std::size_t index = 0;
  for (const Tag& tag : tags) {
    if (got == tag) return index;
    expected += (index++ == 0 ? "'" : " or '") +
                std::string(tag.data(), tag.size()) + "'";
  }
  throw CorruptSnapshotError("snapshot section mismatch: expected " +
                             expected + " (" + component + "), found '" +
                             std::string(got.data(), got.size()) + "'");
}

}  // namespace fedpower::ckpt
