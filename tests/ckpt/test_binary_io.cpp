#include "ckpt/binary_io.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace fedpower::ckpt {
namespace {

TEST(BinaryIo, ScalarsRoundTrip) {
  Writer out;
  out.u8(0xab);
  out.u16(0xbeef);
  out.u32(0xdeadbeefu);
  out.u64(0x0123456789abcdefULL);
  out.f64(-1.5e300);
  out.f32(2.25f);
  const auto bytes = out.data();

  Reader in(bytes);
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u16(), 0xbeef);
  EXPECT_EQ(in.u32(), 0xdeadbeefu);
  EXPECT_EQ(in.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(in.f64(), -1.5e300);
  EXPECT_FLOAT_EQ(in.f32(), 2.25f);
  EXPECT_TRUE(in.exhausted());
}

TEST(BinaryIo, MultiByteValuesAreLittleEndian) {
  Writer out;
  out.u32(0x04030201u);
  const auto& bytes = out.data();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x01);
  EXPECT_EQ(bytes[1], 0x02);
  EXPECT_EQ(bytes[2], 0x03);
  EXPECT_EQ(bytes[3], 0x04);
}

TEST(BinaryIo, ScalarsMatchTheBytewiseLittleEndianEncoding) {
  // Scalars are appended as host memory; on the little-endian hosts the
  // build admits that is the byte-by-byte encoding they always had.
  Writer out;
  out.u16(0x0201);
  out.u64(0x0a09080706050403ULL);
  out.f64(std::bit_cast<double>(std::uint64_t{0x1211100f0e0d0c0bULL}));
  out.f32(std::bit_cast<float>(std::uint32_t{0x16151413u}));
  std::vector<std::uint8_t> expected;
  for (std::uint8_t b = 1; b <= 0x16; ++b) expected.push_back(b);
  EXPECT_EQ(out.data(), expected);
}

TEST(BinaryIo, NonFiniteDoublesRoundTripBitExact) {
  Writer out;
  out.f64(std::numeric_limits<double>::quiet_NaN());
  out.f64(std::numeric_limits<double>::infinity());
  out.f64(-0.0);
  Reader in(out.data());
  EXPECT_TRUE(std::isnan(in.f64()));
  EXPECT_EQ(in.f64(), std::numeric_limits<double>::infinity());
  const double neg_zero = in.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
}

TEST(BinaryIo, StringsAndVectorsRoundTrip) {
  Writer out;
  out.str("water-ns");
  out.str("");
  out.vec_f64(std::vector<double>{1.0, -2.5, 3.75});
  out.vec_u64(std::vector<std::uint64_t>{7, 0, 42});
  out.vec_u8(std::vector<std::uint8_t>{9, 8});
  Reader in(out.data());
  EXPECT_EQ(in.str(), "water-ns");
  EXPECT_EQ(in.str(), "");
  EXPECT_EQ(in.vec_f64(), (std::vector<double>{1.0, -2.5, 3.75}));
  EXPECT_EQ(in.vec_u64(), (std::vector<std::uint64_t>{7, 0, 42}));
  EXPECT_EQ(in.vec_u8(), (std::vector<std::uint8_t>{9, 8}));
  EXPECT_TRUE(in.exhausted());
}

TEST(BinaryIo, RawBytesHaveNoFraming) {
  Writer out;
  out.raw(std::vector<std::uint8_t>{1, 2, 3});
  EXPECT_EQ(out.size(), 3u);  // verbatim, no length prefix
  Reader in(out.data());
  EXPECT_EQ(in.raw(3), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(BinaryIo, ReadingPastEndThrowsCorrupt) {
  Writer out;
  out.u16(1);
  Reader in(out.data());
  (void)in.u8();
  EXPECT_THROW((void)in.u16(), CorruptSnapshotError);
  Reader in2(out.data());
  EXPECT_THROW((void)in2.u64(), CorruptSnapshotError);
  Reader in3(out.data());
  EXPECT_THROW((void)in3.raw(3), CorruptSnapshotError);
}

TEST(BinaryIo, TruncatedStringThrowsCorrupt) {
  Writer out;
  out.str("federated");
  auto bytes = out.take();
  bytes.resize(bytes.size() - 3);
  Reader in(bytes);
  EXPECT_THROW((void)in.str(), CorruptSnapshotError);
}

TEST(BinaryIo, ForgedHugeVectorCountThrowsInsteadOfAllocating) {
  // A forged count of 2^61 elements times 8 bytes overflows u64 into a
  // small number; the division-based guard must reject it before any
  // allocation happens.
  Writer out;
  out.u64(0x2000000000000000ULL);
  out.f64(1.0);
  Reader in(out.data());
  EXPECT_THROW((void)in.vec_f64(), CorruptSnapshotError);
}

// --- bulk vectors ----------------------------------------------------------

/// The per-element little-endian reference encoding of a length-prefixed
/// vector, built from shifts alone so it is independent of the host.
template <class U, class T>
std::vector<std::uint8_t> reference_encoding(const std::vector<T>& v) {
  std::vector<std::uint8_t> out;
  const auto put = [&out](std::uint64_t word, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i)
      out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
  };
  put(v.size(), 8);
  for (const T x : v) put(std::bit_cast<U>(x), sizeof(U));
  return out;
}

template <class U, class T>
std::vector<U> bits_of(const std::vector<T>& v) {
  std::vector<U> out;
  for (const T x : v) out.push_back(std::bit_cast<U>(x));
  return out;
}

std::vector<double> awkward_doubles() {
  using L = std::numeric_limits<double>;
  return {-0.0,
          0.0,
          L::quiet_NaN(),
          std::bit_cast<double>(0x7ff8dead0000beefULL),  // quiet, payload
          std::bit_cast<double>(0x7ff0000000000001ULL),  // signalling
          std::bit_cast<double>(0xfff4000000c0ffeeULL),  // -signalling
          L::denorm_min(),
          -L::denorm_min(),
          std::bit_cast<double>(0x000fffffffffffffULL),  // largest denormal
          L::infinity(),
          -L::infinity(),
          L::max(),
          L::lowest(),
          1.0 / 3.0};
}

std::vector<float> awkward_floats() {
  using L = std::numeric_limits<float>;
  return {-0.0f,
          L::quiet_NaN(),
          std::bit_cast<float>(0x7fc0beefU),  // quiet, payload
          std::bit_cast<float>(0x7f800001U),  // signalling
          std::bit_cast<float>(0xffa00badU),  // -signalling
          L::denorm_min(),
          -L::denorm_min(),
          std::bit_cast<float>(0x007fffffU),  // largest denormal
          L::infinity(),
          -L::infinity(),
          L::max(),
          0.1f};
}

std::vector<std::uint64_t> awkward_words() {
  return {0, 1, 0x8000000000000000ULL, 0xfedcba9876543210ULL,
          std::numeric_limits<std::uint64_t>::max()};
}

TEST(BinaryIo, BulkVectorsMatchThePerElementEncodingBitForBit) {
  for (const bool empty : {false, true}) {
    const auto doubles = empty ? std::vector<double>{} : awkward_doubles();
    const auto floats = empty ? std::vector<float>{} : awkward_floats();
    const auto words = empty ? std::vector<std::uint64_t>{} : awkward_words();

    Writer f64s;
    f64s.vec_f64(doubles);
    EXPECT_EQ(f64s.data(), (reference_encoding<std::uint64_t>(doubles)));
    Writer f32s;
    f32s.vec_f32(floats);
    EXPECT_EQ(f32s.data(), (reference_encoding<std::uint32_t>(floats)));
    Writer u64s;
    u64s.vec_u64(words);
    EXPECT_EQ(u64s.data(), (reference_encoding<std::uint64_t>(words)));

    // The round trip is bit-exact: NaN payloads, signalling bits, the sign
    // of zero and denormals all survive.
    Writer out;
    out.vec_f64(doubles);
    out.vec_f32(floats);
    out.vec_u64(words);
    out.vec_f32(floats);
    Reader in(out.data());
    EXPECT_EQ(bits_of<std::uint64_t>(in.vec_f64()),
              bits_of<std::uint64_t>(doubles));
    EXPECT_EQ(bits_of<std::uint32_t>(in.vec_f32()),
              bits_of<std::uint32_t>(floats));
    EXPECT_EQ(in.vec_u64(), words);
    std::vector<float> in_place(floats.size(), 7.0f);
    in.vec_f32_into(in_place);
    EXPECT_EQ(bits_of<std::uint32_t>(in_place),
              bits_of<std::uint32_t>(floats));
    EXPECT_TRUE(in.exhausted());
  }
}

TEST(BinaryIo, BlocksWrittenPieceByPieceReadAsOneVector) {
  // A length prefix plus f64 blocks is vec_f64's layout, so a value kept in
  // pieces (a model's layers) writes the bytes of the flattened vector and
  // reads back either way.
  const auto doubles = awkward_doubles();
  const std::size_t half = doubles.size() / 2;
  Writer pieces;
  pieces.u64(doubles.size());
  pieces.f64_block(std::span(doubles).first(half));
  pieces.f64_block(std::span(doubles).subspan(half));
  Writer whole;
  whole.vec_f64(doubles);
  EXPECT_EQ(pieces.data(), whole.data());

  Reader in(pieces.data());
  ASSERT_EQ(in.u64(), doubles.size());
  std::vector<double> back(doubles.size());
  in.f64_block_into(std::span(back).first(half));
  in.f64_block_into(std::span(back).subspan(half));
  EXPECT_EQ(bits_of<std::uint64_t>(back), bits_of<std::uint64_t>(doubles));
  EXPECT_TRUE(in.exhausted());

  Reader short_read(std::span(pieces.data()).first(pieces.size() - 1));
  (void)short_read.u64();
  EXPECT_THROW(short_read.f64_block_into(back), CorruptSnapshotError);
}

TEST(BinaryIo, F32BlockIsLosslessExactlyForFloatExactValues) {
  using L = std::numeric_limits<double>;
  // A value is float-exact when its float widens back to the same bits:
  // both zeros, the infinities and every finite float, but no NaN (its
  // payload would be narrowed away), no double denormal and nothing out of
  // float range or finer than float.
  const std::vector<std::pair<double, bool>> cases = {
      {-0.0, true},
      {0.0, true},
      {L::infinity(), true},
      {-L::infinity(), true},
      {0.1f, true},
      {static_cast<double>(std::numeric_limits<float>::denorm_min()), true},
      {static_cast<double>(std::numeric_limits<float>::max()), true},
      {L::quiet_NaN(), false},
      {static_cast<double>(std::numeric_limits<float>::quiet_NaN()), false},
      {std::bit_cast<double>(0x7ff8dead0000beefULL), false},
      {std::bit_cast<double>(0x7ff0000000000001ULL), false},
      {L::denorm_min(), false},
      {L::max(), false},
      {L::lowest(), false},
      {0.1, false},
      {1.0 / 3.0, false}};
  for (const auto& [value, exact] : cases) {
    Writer out;
    EXPECT_EQ(out.f32_block(std::span(&value, 1)), exact)
        << std::bit_cast<std::uint64_t>(value);
    const float narrowed = static_cast<float>(value);
    ASSERT_EQ(out.size(), sizeof(float));
    Reader in(out.data());
    EXPECT_EQ(std::bit_cast<std::uint32_t>(in.f32()),
              std::bit_cast<std::uint32_t>(narrowed));
  }

  // A block of exact values is the vec_f32 layout without its prefix and
  // reads back with every bit.
  std::vector<double> exact;
  for (const auto& [value, is_exact] : cases)
    if (is_exact) exact.push_back(value);
  std::vector<float> floats(exact.begin(), exact.end());
  Writer block;
  EXPECT_TRUE(block.f32_block(exact));
  Writer vec;
  vec.vec_f32(floats);
  EXPECT_EQ(block.data(), std::vector<std::uint8_t>(vec.data().begin() + 8,
                                                    vec.data().end()));
  Reader in(block.data());
  std::vector<double> back(exact.size(), 7.0);
  in.f32_block_into(back);
  EXPECT_EQ(bits_of<std::uint64_t>(back), bits_of<std::uint64_t>(exact));
  EXPECT_TRUE(in.exhausted());

  // One inexact value anywhere makes the whole block inexact.
  exact.push_back(0.1);
  EXPECT_FALSE(Writer().f32_block(exact));
  Reader short_read(std::span(block.data()).first(block.size() - 1));
  EXPECT_THROW(short_read.f32_block_into(back), CorruptSnapshotError);
}

TEST(BinaryIo, TruncateUndoesTheWritesSinceAMark) {
  Writer out;
  out.u32(0x04030201u);
  const std::size_t mark = out.size();
  out.f64(1.0);
  out.str("undone");
  out.truncate(mark);
  out.u8(5);
  Writer expected;
  expected.u32(0x04030201u);
  expected.u8(5);
  EXPECT_EQ(out.data(), expected.data());
}

TEST(BinaryIo, VecF64IntoResizesTheTargetAndKeepsItsStorage) {
  Writer out;
  out.vec_f64(std::vector<double>{1.0, 2.0});
  out.vec_f64(std::vector<double>{});
  std::vector<double> target(8, 9.0);
  const double* storage = target.data();
  Reader in(out.data());
  in.vec_f64_into(target);
  EXPECT_EQ(target, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(target.data(), storage);
  in.vec_f64_into(target);
  EXPECT_TRUE(target.empty());
  EXPECT_TRUE(in.exhausted());

  // A forged count is rejected before the target grows.
  Writer forged;
  forged.u64(std::numeric_limits<std::uint64_t>::max() / 8 + 1);
  forged.f64(1.0);
  Reader bad(forged.data());
  EXPECT_THROW(bad.vec_f64_into(target), CorruptSnapshotError);
}

TEST(BinaryIo, InPlaceReadsRejectACountOtherThanTheTarget) {
  Writer out;
  out.vec_f32(std::vector<float>{1.0f, 2.0f, 3.0f});
  out.vec_u8(std::vector<std::uint8_t>{4, 5});
  std::vector<float> two(2, 0.0f);
  Reader short_target(out.data());
  EXPECT_THROW(short_target.vec_f32_into(two), CorruptSnapshotError);
  EXPECT_EQ(two, (std::vector<float>{0.0f, 0.0f}));  // untouched

  Reader in(out.data());
  std::vector<float> three(3);
  in.vec_f32_into(three);
  std::vector<std::uint8_t> one(1);
  EXPECT_THROW(in.vec_u8_into(one), CorruptSnapshotError);
}

TEST(BinaryIo, BulkReadsRejectTruncatedAndForgedCounts) {
  // A count the payload cannot hold — truncated by one element, or forged
  // near 2^64 where count * element size wraps around — is rejected before
  // any allocation or copy.
  for (const std::uint64_t count :
       {std::uint64_t{3}, std::uint64_t{5},
        std::numeric_limits<std::uint64_t>::max(),
        std::numeric_limits<std::uint64_t>::max() / 8 + 1,
        std::numeric_limits<std::uint64_t>::max() / 4 + 1,
        std::uint64_t{1} << 63}) {
    Writer out;
    out.u64(count);
    for (int i = 0; i < 2; ++i) out.f64(1.0);  // 16 bytes of payload
    const auto& bytes = out.data();
    Reader f64s(bytes);
    EXPECT_THROW((void)f64s.vec_f64(), CorruptSnapshotError) << count;
    Reader u64s(bytes);
    EXPECT_THROW((void)u64s.vec_u64(), CorruptSnapshotError) << count;
    if (count > 4) {
      Reader f32s(bytes);
      EXPECT_THROW((void)f32s.vec_f32(), CorruptSnapshotError) << count;
    }
    if (count > 16) {
      Reader u8s(bytes);
      EXPECT_THROW((void)u8s.vec_u8(), CorruptSnapshotError) << count;
    }
    // A five-float target: the count either disagrees with it or, at 5,
    // needs 20 bytes where 16 remain.
    std::vector<float> target(5);
    Reader into(bytes);
    EXPECT_THROW(into.vec_f32_into(target), CorruptSnapshotError) << count;
  }
}

TEST(BinaryIo, ExpectTagOfReportsWhichLayoutMatched) {
  const Tag current{'R', 'P', 'L', '2'};
  const Tag legacy{'R', 'P', 'L', 'Y'};
  Writer out;
  write_tag(out, legacy);
  write_tag(out, current);
  write_tag(out, Tag{'A', 'D', 'A', 'M'});
  Reader in(out.data());
  EXPECT_EQ(expect_tag_of(in, {current, legacy}, "replay"), 1u);
  EXPECT_EQ(expect_tag_of(in, {current, legacy}, "replay"), 0u);
  try {
    (void)expect_tag_of(in, {current, legacy}, "replay");
    FAIL() << "expect_tag_of should have thrown";
  } catch (const CorruptSnapshotError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'RPL2' or 'RPLY'"), std::string::npos) << what;
    EXPECT_NE(what.find("ADAM"), std::string::npos) << what;
  }
}

TEST(BinaryIo, TagMismatchNamesComponent) {
  Writer out;
  write_tag(out, Tag{'A', 'D', 'A', 'M'});
  Reader good(out.data());
  EXPECT_NO_THROW(expect_tag(good, Tag{'A', 'D', 'A', 'M'}, "Adam"));
  Reader bad(out.data());
  try {
    expect_tag(bad, Tag{'S', 'G', 'D', '0'}, "Sgd");
    FAIL() << "expect_tag should have thrown";
  } catch (const CorruptSnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("Sgd"), std::string::npos);
  }
}

}  // namespace
}  // namespace fedpower::ckpt
