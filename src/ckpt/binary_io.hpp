// Typed little-endian binary encoding for snapshot payloads.
//
// Writer appends fixed-width fields to a byte buffer; Reader consumes them
// with bounds checking and throws CorruptSnapshotError instead of reading
// past the end, so a truncated or bit-flipped payload that somehow slips
// past the container CRC still cannot make restore_state() read garbage.
// Every multi-byte value is little-endian, so a snapshot written on one
// machine restores on any other. Scalars and homogeneous vectors are copied
// as host memory, one grow of the buffer each, which is why the build
// requires a little-endian host (binary_io.cpp).
//
// Components frame their state with a 4-byte tag (write_tag/expect_tag):
// the tag turns "restore read the wrong bytes" into a named error ("expected
// ADAM section") instead of silently mis-assigning fields.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "ckpt/errors.hpp"

namespace fedpower::ckpt {

class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  ///< IEEE-754 bit pattern, little-endian
  void f32(float v);

  /// Length-prefixed (u32) byte/character sequences.
  void str(const std::string& s);
  void bytes(std::span<const std::uint8_t> data);

  /// Appends bytes verbatim, no length prefix (container framing only).
  void raw(std::span<const std::uint8_t> data);

  /// Length-prefixed (u64) homogeneous vectors.
  void vec_f64(std::span<const double> v);
  void vec_f32(std::span<const float> v);
  void vec_u8(std::span<const std::uint8_t> v);
  void vec_u64(std::span<const std::uint64_t> v);

  /// A run of doubles with no length prefix: the caller writes the count
  /// (or it is implied), so a value kept in several pieces is written
  /// piece by piece with the bytes vec_f64 gives for the whole.
  void f64_block(std::span<const double> v);

  /// f64_block() with each value narrowed to a float (Reader::f32_block_into
  /// widens it back). Returns whether the block is lossless: every value
  /// float-exact, its float widening back to the same bits. NaN never
  /// counts as exact, so a NaN's payload is never narrowed away silently.
  bool f32_block(std::span<const double> v);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept {
    return buffer_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(buffer_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

  /// Empties the buffer but keeps its capacity, so a writer reused for a
  /// stream of payloads stops reallocating once it has seen the largest.
  void clear() noexcept { buffer_.clear(); }

  /// Drops every byte from offset size on (size <= this->size()): undoes
  /// the writes made since size() read that value.
  void truncate(std::size_t size) noexcept;

 private:
  template <class T>
  void append_scalar(T v);
  template <class T>
  void append_vec(std::span<const T> v);
  template <class T>
  void append_block(std::span<const T> v);

  std::vector<std::uint8_t> buffer_;
};

class Reader {
 public:
  /// The reader does not own the bytes; they must outlive it.
  explicit Reader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] float f32();

  [[nodiscard]] std::string str();
  [[nodiscard]] std::vector<std::uint8_t> bytes();

  /// Consumes exactly n bytes verbatim (container framing only).
  [[nodiscard]] std::vector<std::uint8_t> raw(std::size_t n);

  [[nodiscard]] std::vector<double> vec_f64();
  [[nodiscard]] std::vector<float> vec_f32();
  [[nodiscard]] std::vector<std::uint8_t> vec_u8();
  [[nodiscard]] std::vector<std::uint64_t> vec_u64();

  /// Reads a vector straight into caller-owned storage; throws
  /// CorruptSnapshotError unless it holds exactly out.size() elements.
  void vec_f32_into(std::span<float> out);
  void vec_u8_into(std::span<std::uint8_t> out);
  /// vec_f64() into caller-owned storage, resized to the stored count and
  /// reusing its capacity.
  void vec_f64_into(std::vector<double>& out);
  /// The read side of Writer::f64_block: fills out from the next
  /// out.size() doubles.
  void f64_block_into(std::span<double> out);
  /// The read side of Writer::f32_block: fills out from the next
  /// out.size() floats, widened.
  void f32_block_into(std::span<double> out);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  /// Throws CorruptSnapshotError when fewer than n bytes remain.
  void require(std::size_t n) const;

  template <class T>
  T read_scalar();
  template <class T>
  std::vector<T> read_vec();
  template <class T>
  void read_vec_into(std::span<T> out);
  /// Fills out from the next out.size_bytes() bytes.
  template <class T>
  void copy_out(std::span<T> out);

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// 4-character section tags framing each component's state.
using Tag = std::array<char, 4>;

void write_tag(Writer& out, const Tag& tag);

/// Consumes 4 bytes and throws CorruptSnapshotError naming `component` when
/// they differ from the expected tag.
void expect_tag(Reader& in, const Tag& tag, const char* component);

/// Consumes 4 bytes and returns the index of the tag in `tags` they match;
/// throws CorruptSnapshotError naming `component` when they match none. The
/// read side of a section with more than one layout.
std::size_t expect_tag_of(Reader& in, std::initializer_list<Tag> tags,
                          const char* component);

}  // namespace fedpower::ckpt
