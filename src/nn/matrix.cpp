#include "nn/matrix.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>

namespace fedpower::nn {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ > 0 ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    FEDPOWER_EXPECTS(row.size() == cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::row_vector(const std::vector<double>& values) {
  Matrix m(1, values.size());
  m.data_ = values;
  return m;
}

namespace {

// Every product below runs the same two steps per output row: compact the
// row's nonzero terms, then accumulate them into register blocks of
// outputs. Only the index mapping differs between the three products.

// Zero terms are skipped through a list of nonzero positions built without
// a data-dependent branch, so no unpredictable branch sits in the
// multiply-add loops. Terms are compacted kChunk at a time, which keeps the
// list on the stack for any length.
constexpr std::size_t kChunk = 64;

/// Writes the positions of the nonzero entries of x[0, n), ascending, to
/// idx and returns how many there are. Tests the bits (any bit but the sign
/// set), which is x != 0.0 without a floating-point compare: NaN, infinity
/// and denormals count as nonzero, +0.0 and -0.0 do not.
std::size_t compact_nonzero(const double* x, std::size_t n,
                            std::size_t* idx) noexcept {
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    idx[count] = i;
    count += static_cast<std::size_t>(
        (std::bit_cast<std::uint64_t>(x[i]) << 1) != 0);
  }
  return count;
}

/// out[i] += sum over j of x[j] * b[idx[j] * stride + i * step] for i in
/// [0, W), each sum in ascending j. The W outputs stay in locals across the
/// whole term loop: W independent add chains instead of one, and one store
/// each. Unit-step blocks read b contiguously, which lets them vectorize.
template <std::size_t W, bool kUnitStep>
void accumulate_block(const double* x, const std::size_t* idx,
                      std::size_t count, const double* b, std::size_t stride,
                      std::size_t step, double* out) noexcept {
  double s[W];
  for (std::size_t i = 0; i < W; ++i) s[i] = out[i];
  for (std::size_t j = 0; j < count; ++j) {
    const double* bj = b + idx[j] * stride;
    for (std::size_t i = 0; i < W; ++i)
      s[i] += x[j] * bj[kUnitStep ? i : i * step];
  }
  for (std::size_t i = 0; i < W; ++i) out[i] = s[i];
}

/// Widest block: 16 contiguous outputs are 8 SSE2 registers; strided
/// blocks load lane by lane, and 8 chains already hide the add latency.
template <bool kUnitStep>
constexpr std::size_t kMaxBlock = kUnitStep ? 16 : 8;

using BlockFn = void (*)(const double*, const std::size_t*, std::size_t,
                         const double*, std::size_t, std::size_t, double*);

template <bool kUnitStep, std::size_t... W>
constexpr std::array<BlockFn, sizeof...(W)> block_table(
    std::index_sequence<W...>) {
  return {&accumulate_block<W + 1, kUnitStep>...};
}

/// accumulate_block over `width` outputs: full blocks, then the one
/// instantiation that fits the tail exactly.
template <bool kUnitStep>
void accumulate_row(const double* x, const std::size_t* idx,
                    std::size_t count, const double* b, std::size_t stride,
                    std::size_t step, std::size_t width,
                    double* out) noexcept {
  constexpr std::size_t kWidth = kMaxBlock<kUnitStep>;
  static constexpr auto kTails =
      block_table<kUnitStep>(std::make_index_sequence<kWidth - 1>{});
  std::size_t c = 0;
  for (; c + kWidth <= width; c += kWidth)
    accumulate_block<kWidth, kUnitStep>(x, idx, count, b + c * step, stride,
                                        step, out + c);
  if (c < width)
    kTails[width - c - 1](x, idx, count, b + c * step, stride, step,
                          out + c);
}

/// Compacts the terms x[0, n) (in chunks), gathering the nonzero values to
/// xs and their offsets to idx, and hands each chunk to accumulate.
template <class Accumulate>
void for_nonzero_chunks(const double* x, std::size_t n, std::size_t x_step,
                        Accumulate&& accumulate) {
  std::size_t idx[kChunk];
  double xs[kChunk];
  double gathered[kChunk];
  for (std::size_t k0 = 0; k0 < n; k0 += kChunk) {
    const std::size_t len = std::min(kChunk, n - k0);
    const double* chunk = x + k0 * x_step;
    if (x_step != 1) {
      for (std::size_t k = 0; k < len; ++k) gathered[k] = chunk[k * x_step];
      chunk = gathered;
    }
    const std::size_t count = compact_nonzero(chunk, len, idx);
    for (std::size_t j = 0; j < count; ++j) {
      xs[j] = chunk[idx[j]];
      idx[j] += k0;
    }
    accumulate(xs, idx, count);
  }
}

}  // namespace

void matmul_row_into(std::span<const double> x, const Matrix& b,
                     std::span<double> out) {
  FEDPOWER_EXPECTS(x.size() == b.rows() && out.size() == b.cols());
  const std::size_t cols = b.cols();
  std::fill(out.begin(), out.end(), 0.0);
  // out[c] = sum_k x[k] * b[k][c]: terms along x.
  for_nonzero_chunks(x.data(), x.size(), 1,
                     [&](const double* xs, const std::size_t* idx,
                         std::size_t count) {
                       accumulate_row<true>(xs, idx, count, b.data().data(),
                                            cols, 1, cols, out.data());
                     });
}

void matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDPOWER_EXPECTS(a.cols() == b.rows());
  FEDPOWER_EXPECTS(&out != &a && &out != &b);
  const std::size_t inner = a.cols();
  const std::size_t cols = b.cols();
  out.resize(a.rows(), cols);
  const std::span<const double> pa(a.data());
  const std::span<double> po(out.data());
  for (std::size_t r = 0; r < a.rows(); ++r)
    matmul_row_into(pa.subspan(r * inner, inner), b,
                    po.subspan(r * cols, cols));
}

void transpose_matmul_into(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDPOWER_EXPECTS(a.rows() == b.rows());
  FEDPOWER_EXPECTS(&out != &a && &out != &b);
  const std::size_t inner = a.rows();
  const std::size_t rows = a.cols();
  const std::size_t cols = b.cols();
  out.resize(rows, cols);
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* po = out.data().data();
  // out[r][c] = sum_k a[k][r] * b[k][c]. Compaction is paid once per line
  // of terms, so the terms run down the shorter side's columns: down a's
  // column r into out's row r, or down b's column c into out's column c.
  if (rows <= cols) {
    std::fill(out.data().begin(), out.data().end(), 0.0);
    for (std::size_t r = 0; r < rows; ++r)
      for_nonzero_chunks(pa + r, inner, rows,
                         [&](const double* xs, const std::size_t* idx,
                             std::size_t count) {
                           accumulate_row<true>(xs, idx, count, pb, cols, 1,
                                                cols, po + r * cols);
                         });
    return;
  }
  double column[kChunk];
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t r0 = 0; r0 < rows; r0 += kChunk) {
      const std::size_t width = std::min(kChunk, rows - r0);
      std::fill(column, column + width, 0.0);
      for_nonzero_chunks(pb + c, inner, cols,
                         [&](const double* xs, const std::size_t* idx,
                             std::size_t count) {
                           accumulate_row<true>(xs, idx, count, pa + r0, rows,
                                                1, width, column);
                         });
      for (std::size_t i = 0; i < width; ++i)
        po[(r0 + i) * cols + c] = column[i];
    }
}

void matmul_transpose_into(const Matrix& a, const Matrix& b, Matrix& out) {
  FEDPOWER_EXPECTS(a.cols() == b.cols());
  FEDPOWER_EXPECTS(&out != &a && &out != &b);
  const std::size_t rows = a.rows();
  const std::size_t inner = a.cols();
  const std::size_t cols = b.rows();
  out.resize(rows, cols);
  std::fill(out.data().begin(), out.data().end(), 0.0);
  const double* pa = a.data().data();
  const double* pb = b.data().data();
  double* po = out.data().data();
  // out[r][c] = sum_k a[r][k] * b[c][k]: terms along a's row r, each
  // output column reading its own row of b.
  for (std::size_t r = 0; r < rows; ++r)
    for_nonzero_chunks(pa + r * inner, inner, 1,
                       [&](const double* xs, const std::size_t* idx,
                           std::size_t count) {
                         accumulate_row<false>(xs, idx, count, pb, 1, inner,
                                               cols, po + r * cols);
                       });
}

void column_sums_into(const Matrix& a, Matrix& out) {
  FEDPOWER_EXPECTS(&out != &a);
  const std::size_t cols = a.cols();
  out.resize(1, cols);
  std::fill(out.data().begin(), out.data().end(), 0.0);
  const double* pa = a.data().data();
  double* po = out.data().data();
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < cols; ++c) po[c] += pa[r * cols + c];
}

Matrix Matrix::matmul(const Matrix& other) const {
  Matrix out;
  matmul_into(*this, other, out);
  return out;
}

Matrix Matrix::transpose_matmul(const Matrix& other) const {
  Matrix out;
  transpose_matmul_into(*this, other, out);
  return out;
}

Matrix Matrix::matmul_transpose(const Matrix& other) const {
  Matrix out;
  matmul_transpose_into(*this, other, out);
  return out;
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  FEDPOWER_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  FEDPOWER_EXPECTS(same_shape(other));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (double& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::hadamard(const Matrix& other) const {
  FEDPOWER_EXPECTS(same_shape(other));
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i)
    out.data_[i] *= other.data_[i];
  return out;
}

void Matrix::add_row_broadcast(const Matrix& row) {
  FEDPOWER_EXPECTS(row.rows() == 1 && row.cols() == cols_);
  const std::span<double> data(data_);
  for (std::size_t r = 0; r < rows_; ++r)
    add_row_into(data.subspan(r * cols_, cols_), row.data_);
}

void add_row_into(std::span<double> out, std::span<const double> row) {
  FEDPOWER_EXPECTS(out.size() == row.size());
  for (std::size_t c = 0; c < out.size(); ++c) out[c] += row[c];
}

Matrix Matrix::column_sums() const {
  Matrix out;
  column_sums_into(*this, out);
  return out;
}

}  // namespace fedpower::nn
