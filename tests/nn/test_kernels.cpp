// Equivalence of the in-place kernels with naive reference loops, bit for
// bit. The references below add every term, zero or not, in ascending k
// from +0.0: the summation order the kernels promise. Skipping exact-zero
// terms must not change a single bit for finite operands, so the shapes
// and contents are chosen to stress exactly that: ReLU-sparse and one-hot
// rows, all-zero rows, -0.0 entries and denormals.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/activation.hpp"
#include "nn/matrix.hpp"
#include "util/rng.hpp"

namespace fedpower::nn {
namespace {

// --- naive references -------------------------------------------------------

Matrix ref_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < b.cols(); ++c) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(r, k) * b(k, c);
      out(r, c) = s;
    }
  return out;
}

Matrix ref_transpose_matmul(const Matrix& a, const Matrix& b) {
  Matrix out(a.cols(), b.cols());
  for (std::size_t r = 0; r < a.cols(); ++r)
    for (std::size_t c = 0; c < b.cols(); ++c) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.rows(); ++k) s += a(k, r) * b(k, c);
      out(r, c) = s;
    }
  return out;
}

Matrix ref_matmul_transpose(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.rows());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < b.rows(); ++c) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(r, k) * b(c, k);
      out(r, c) = s;
    }
  return out;
}

Matrix ref_column_sums(const Matrix& a) {
  Matrix out(1, a.cols());
  for (std::size_t c = 0; c < a.cols(); ++c) {
    double s = 0.0;
    for (std::size_t r = 0; r < a.rows(); ++r) s += a(r, c);
    out(0, c) = s;
  }
  return out;
}

bool bitwise_equal(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.size() * sizeof(double)) == 0;
}

// --- generated operands ------------------------------------------------------

enum class Fill {
  kDense,
  kReluSparse,
  kOneHot,
  kZeroRows,
  kSignedZeros,
  kDenormals,
};

const char* name(Fill fill) {
  switch (fill) {
    case Fill::kDense: return "dense";
    case Fill::kReluSparse: return "relu-sparse";
    case Fill::kOneHot: return "one-hot";
    case Fill::kZeroRows: return "zero-rows";
    case Fill::kSignedZeros: return "signed-zeros";
    case Fill::kDenormals: return "denormals";
  }
  return "?";
}

constexpr Fill kFills[] = {Fill::kDense,       Fill::kReluSparse,
                           Fill::kOneHot,      Fill::kZeroRows,
                           Fill::kSignedZeros, Fill::kDenormals};

Matrix make(std::size_t rows, std::size_t cols, Fill fill, util::Rng& rng) {
  Matrix m(rows, cols);
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t hot = static_cast<std::size_t>(rng.uniform_index(cols));
    const bool zero_row = rng.uniform() < 0.3;
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = rng.uniform(-2.0, 2.0);
      double& x = m(r, c);
      switch (fill) {
        case Fill::kDense: x = v; break;
        case Fill::kReluSparse: x = v < 0.0 ? 0.0 : v; break;
        case Fill::kOneHot: x = c == hot ? v : 0.0; break;
        case Fill::kZeroRows: x = zero_row ? 0.0 : v; break;
        case Fill::kSignedZeros:
          x = rng.uniform() < 0.5 ? (v < 0.0 ? -0.0 : 0.0) : v;
          break;
        case Fill::kDenormals:
          // Denormal operands, and products that underflow to +-0.0.
          x = rng.uniform() < 0.5 ? v * 1e3 * tiny : v * 1e-160;
          break;
      }
    }
  }
  return m;
}

/// Runs check(a_fill, b_fill, rng, label) over every pair of fills for a
/// batch of seeded shapes with every dimension in [1, 64].
template <class Check>
void for_generated_shapes(Check&& check) {
  util::Rng rng(0x6b65726eULL);
  for (int trial = 0; trial < 12; ++trial)
    for (const Fill fa : kFills)
      for (const Fill fb : kFills) {
        const std::string label = std::string(name(fa)) + " x " + name(fb) +
                                  ", trial " + std::to_string(trial);
        check(fa, fb, rng, label);
      }
}

std::size_t dim(util::Rng& rng) {
  return 1 + static_cast<std::size_t>(rng.uniform_index(64));
}

// --- equivalence -------------------------------------------------------------

TEST(Kernels, MatmulIntoMatchesReferenceBitwise) {
  Matrix out(3, 70);  // stale storage of another shape must not leak
  for_generated_shapes([&](Fill fa, Fill fb, util::Rng& rng,
                           const std::string& label) {
    const std::size_t r = dim(rng), k = dim(rng), c = dim(rng);
    const Matrix a = make(r, k, fa, rng);
    const Matrix b = make(k, c, fb, rng);
    matmul_into(a, b, out);
    ASSERT_TRUE(bitwise_equal(out, ref_matmul(a, b))) << label;
    ASSERT_TRUE(bitwise_equal(a.matmul(b), out)) << label;
  });
}

TEST(Kernels, TransposeMatmulIntoMatchesReferenceBitwise) {
  Matrix out(70, 3);
  for_generated_shapes([&](Fill fa, Fill fb, util::Rng& rng,
                           const std::string& label) {
    const std::size_t k = dim(rng), r = dim(rng), c = dim(rng);
    const Matrix a = make(k, r, fa, rng);
    const Matrix b = make(k, c, fb, rng);
    transpose_matmul_into(a, b, out);
    ASSERT_TRUE(bitwise_equal(out, ref_transpose_matmul(a, b))) << label;
    ASSERT_TRUE(bitwise_equal(a.transpose_matmul(b), out)) << label;
  });
}

TEST(Kernels, MatmulTransposeIntoMatchesReferenceBitwise) {
  Matrix out(1, 1);
  for_generated_shapes([&](Fill fa, Fill fb, util::Rng& rng,
                           const std::string& label) {
    const std::size_t r = dim(rng), k = dim(rng), c = dim(rng);
    const Matrix a = make(r, k, fa, rng);
    const Matrix b = make(c, k, fb, rng);
    matmul_transpose_into(a, b, out);
    ASSERT_TRUE(bitwise_equal(out, ref_matmul_transpose(a, b))) << label;
    ASSERT_TRUE(bitwise_equal(a.matmul_transpose(b), out)) << label;
  });
}

TEST(Kernels, ColumnSumsIntoMatchesReferenceBitwise) {
  Matrix out(4, 4);
  for_generated_shapes([&](Fill fa, Fill, util::Rng& rng,
                           const std::string& label) {
    const Matrix a = make(dim(rng), dim(rng), fa, rng);
    column_sums_into(a, out);
    ASSERT_TRUE(bitwise_equal(out, ref_column_sums(a))) << label;
  });
}

TEST(Kernels, LongRowsSpanSeveralCompactionChunks) {
  // Inner and outer dimensions past the 64-term compaction chunk.
  util::Rng rng(5);
  Matrix out;
  const Matrix a = make(3, 200, Fill::kReluSparse, rng);
  const Matrix b = make(200, 70, Fill::kSignedZeros, rng);
  matmul_into(a, b, out);
  EXPECT_TRUE(bitwise_equal(out, ref_matmul(a, b)));
  const Matrix bt = make(70, 200, Fill::kDense, rng);
  matmul_transpose_into(a, bt, out);
  EXPECT_TRUE(bitwise_equal(out, ref_matmul_transpose(a, bt)));
  const Matrix tall_a = make(150, 90, Fill::kOneHot, rng);
  const Matrix tall_b = make(150, 3, Fill::kDenormals, rng);
  transpose_matmul_into(tall_a, tall_b, out);
  EXPECT_TRUE(bitwise_equal(out, ref_transpose_matmul(tall_a, tall_b)));
  transpose_matmul_into(tall_b, tall_a, out);
  EXPECT_TRUE(bitwise_equal(out, ref_transpose_matmul(tall_b, tall_a)));
}

TEST(Kernels, ZeroRowsGivePositiveZero) {
  // A +0.0-seeded sum of skipped (or -0.0) terms stays +0.0, never -0.0.
  const Matrix a{{-0.0, 0.0}, {0.0, -0.0}};
  const Matrix b{{-1.0, 2.0}, {3.0, -4.0}};
  Matrix out;
  matmul_into(a, b, out);
  for (const double v : out.data()) EXPECT_FALSE(std::signbit(v));
}

// --- non-finite operands -----------------------------------------------------

bool any_non_finite(const Matrix& m) {
  for (const double v : m.data())
    if (!std::isfinite(v)) return true;
  return false;
}

TEST(Kernels, NonFiniteWeightWithNonzeroInputGivesNonFiniteOutput) {
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    const Matrix x{{0.5, 0.0, -1.0}};
    Matrix w(3, 2, 0.25);
    w(2, 1) = bad;  // meets the nonzero input x[2]
    Matrix out;
    matmul_into(x, w, out);
    EXPECT_TRUE(std::isfinite(out(0, 0)));
    EXPECT_FALSE(std::isfinite(out(0, 1)));

    // The same weight seen from the backward products.
    const Matrix g{{0.0, 2.0}};
    matmul_transpose_into(g, w, out);  // g * w^T: meets g[1]
    EXPECT_TRUE(any_non_finite(out));
    Matrix xs(1, 3, 1.0);
    xs(0, 2) = bad;
    transpose_matmul_into(xs, g, out);  // xs^T * g: meets g[1]
    EXPECT_TRUE(any_non_finite(out));
  }
}

TEST(Kernels, NaNInputIsNeverSkippedAsZero) {
  const Matrix x{{std::numeric_limits<double>::quiet_NaN(), 0.0}};
  const Matrix w{{1.0}, {1.0}};
  Matrix out;
  matmul_into(x, w, out);
  EXPECT_TRUE(std::isnan(out(0, 0)));
}

// --- ReLU --------------------------------------------------------------------

TEST(Kernels, ReluMatchesBranchingReferenceBitwise) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const Matrix x{{-1.0, -0.0, 0.0, 2.5, nan, -tiny, tiny}};
  Relu relu;
  const Matrix& y = relu.forward(x);
  Matrix expected = x;
  for (double& v : expected.data())
    if (v < 0.0) v = 0.0;
  EXPECT_TRUE(bitwise_equal(y, expected));

  const Matrix g{{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0}};
  const Matrix& dx = relu.backward(g);
  Matrix expected_dx = g;
  for (std::size_t i = 0; i < g.size(); ++i)
    if (x.data()[i] <= 0.0) expected_dx.data()[i] = 0.0;
  EXPECT_TRUE(bitwise_equal(dx, expected_dx));
}

}  // namespace
}  // namespace fedpower::nn
