#include "fed/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "nn/mlp.hpp"

namespace fedpower::fed {
namespace {

TEST(Float32Codec, RoundTrip) {
  const Float32Codec& codec = Float32Codec::instance();
  const std::vector<double> params = {0.5, -1.25, 3.0};
  EXPECT_EQ(codec.decode(codec.encode(params)), params);
}

TEST(Float32Codec, PayloadSizeMatchesSerializeModule) {
  const Float32Codec& codec = Float32Codec::instance();
  EXPECT_EQ(codec.payload_size(687), 12u + 687u * 4u);
  EXPECT_EQ(codec.encode(std::vector<double>(687, 0.1)).size(),
            codec.payload_size(687));
}

TEST(Float32Codec, Name) {
  EXPECT_EQ(Float32Codec::instance().name(), "float32");
}

TEST(QuantizedCodec, RoundTripWithinErrorBound) {
  const QuantizedCodec& codec = QuantizedCodec::instance();
  const std::vector<double> params = {-0.8, -0.3, 0.0, 0.4, 0.8};
  const auto decoded = codec.decode(codec.encode(params));
  ASSERT_EQ(decoded.size(), params.size());
  const double bound = QuantizedCodec::max_error(-0.8, 0.8) + 1e-9;
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_NEAR(decoded[i], params[i], bound);
}

TEST(QuantizedCodec, EndpointsAreExact) {
  const QuantizedCodec& codec = QuantizedCodec::instance();
  const std::vector<double> params = {-2.0, 2.0};
  const auto decoded = codec.decode(codec.encode(params));
  EXPECT_NEAR(decoded[0], -2.0, 1e-6);
  EXPECT_NEAR(decoded[1], 2.0, 1e-6);
}

TEST(QuantizedCodec, QuartersThePayload) {
  const QuantizedCodec& q = QuantizedCodec::instance();
  const Float32Codec& f = Float32Codec::instance();
  // 687-parameter policy: 2760 B float32 vs ~707 B int8.
  EXPECT_LT(q.payload_size(687) * 3, f.payload_size(687));
}

TEST(QuantizedCodec, ConstantVectorSurvives) {
  const QuantizedCodec& codec = QuantizedCodec::instance();
  const std::vector<double> params(10, 0.42);
  const auto decoded = codec.decode(codec.encode(params));
  for (const double v : decoded) EXPECT_NEAR(v, 0.42, 1e-6);
}

TEST(QuantizedCodec, EmptyVector) {
  const QuantizedCodec& codec = QuantizedCodec::instance();
  EXPECT_TRUE(codec.decode(codec.encode(std::vector<double>{})).empty());
}

TEST(QuantizedCodec, RejectsMalformedPayloads) {
  const QuantizedCodec& codec = QuantizedCodec::instance();
  EXPECT_THROW(codec.decode(std::vector<std::uint8_t>(5, 0)),
               std::invalid_argument);
  auto payload = codec.encode(std::vector<double>{1.0, 2.0});
  payload[0] = 'X';
  EXPECT_THROW(codec.decode(payload), std::invalid_argument);
  auto truncated = codec.encode(std::vector<double>{1.0, 2.0});
  truncated.pop_back();
  EXPECT_THROW(codec.decode(truncated), std::invalid_argument);
}

TEST(QuantizedCodec, RejectsUnsupportedVersion) {
  const QuantizedCodec& codec = QuantizedCodec::instance();
  auto payload = codec.encode(std::vector<double>{1.0, 2.0});
  ASSERT_EQ(payload[4], 1);  // version 1, little-endian
  payload[4] = 2;
  EXPECT_THROW(codec.decode(payload), std::invalid_argument);
  payload[4] = 1;
  payload[5] = 1;  // version 257
  EXPECT_THROW(codec.decode(payload), std::invalid_argument);
  payload[5] = 0;
  EXPECT_NO_THROW(codec.decode(payload));
}

TEST(QuantizedCodec, RealisticModelAccuracy) {
  // Quantizing a real policy network must not move any parameter by more
  // than the bound given its min/max spread.
  util::Rng rng(1);
  nn::Mlp model = nn::make_mlp(5, {32}, 15, rng);
  const std::vector<double> params = model.parameters();
  double lo = params[0];
  double hi = params[0];
  for (const double p : params) {
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  const QuantizedCodec& codec = QuantizedCodec::instance();
  const auto decoded = codec.decode(codec.encode(params));
  const double bound = QuantizedCodec::max_error(lo, hi) + 1e-6;
  for (std::size_t i = 0; i < params.size(); ++i)
    EXPECT_NEAR(decoded[i], params[i], bound);
}

}  // namespace
}  // namespace fedpower::fed
