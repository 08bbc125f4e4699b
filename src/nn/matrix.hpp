// Dense row-major matrix of doubles. Deliberately small: the policy networks
// in this library are tiny (hundreds of parameters), so we favour a clear,
// assert-checked implementation over BLAS bindings.
//
// The products have one implementation each, the *_into kernels below,
// which write into a caller-owned output and so allocate nothing once that
// output has grown to size; the out-of-place members wrap them. Every
// output element is summed in ascending k from +0.0, and exactly-zero terms
// are skipped (DESIGN.md §5 gives the exactness argument).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace fedpower::nn {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix filled with the given value.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Builds from nested braces: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// A 1 x n row vector from a flat list of values.
  [[nodiscard]] static Matrix row_vector(const std::vector<double>& values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  /// Reshapes to rows x cols, reusing the storage when it is large enough
  /// (so a workspace that has held the largest shape never reallocates).
  /// Element values are unspecified afterwards.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  double& operator()(std::size_t r, std::size_t c) noexcept {
    FEDPOWER_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const noexcept {
    FEDPOWER_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::vector<double>& data() noexcept { return data_; }
  const std::vector<double>& data() const noexcept { return data_; }

  /// Matrix product this(r x k) * other(k x c).
  [[nodiscard]] Matrix matmul(const Matrix& other) const;

  /// this^T * other, without materializing the transpose.
  [[nodiscard]] Matrix transpose_matmul(const Matrix& other) const;

  /// this * other^T, without materializing the transpose.
  [[nodiscard]] Matrix matmul_transpose(const Matrix& other) const;

  [[nodiscard]] Matrix transpose() const;

  /// Elementwise operations; shapes must match.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;
  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, double s) { return a *= s; }
  friend Matrix operator*(double s, Matrix a) { return a *= s; }

  /// Elementwise (Hadamard) product.
  [[nodiscard]] Matrix hadamard(const Matrix& other) const;

  /// Adds a 1 x cols row vector to every row (bias broadcast).
  void add_row_broadcast(const Matrix& row);

  /// Sum over rows, yielding a 1 x cols vector (bias gradient).
  [[nodiscard]] Matrix column_sums() const;

  [[nodiscard]] bool same_shape(const Matrix& other) const noexcept {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// In-place kernels. Each resizes `out` and overwrites all of it; `out` must
// not alias an operand.

/// out = a(r x k) * b(k x c).
void matmul_into(const Matrix& a, const Matrix& b, Matrix& out);

/// out = x(1 x k) * b(k x c) for one row x: matmul_into computes each of
/// its rows through it, so a row computed here has that row's bits. out
/// (c values) must not alias x or b.
void matmul_row_into(std::span<const double> x, const Matrix& b,
                     std::span<double> out);

/// out[c] += row[c]: add_row_broadcast adds its row to each row through
/// it.
void add_row_into(std::span<double> out, std::span<const double> row);

/// out = a^T * b for a(k x r), b(k x c), without materializing a^T.
void transpose_matmul_into(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a * b^T for a(r x k), b(c x k), without materializing b^T.
void matmul_transpose_into(const Matrix& a, const Matrix& b, Matrix& out);

/// out = the 1 x cols vector of a's column sums.
void column_sums_into(const Matrix& a, Matrix& out);

}  // namespace fedpower::nn
