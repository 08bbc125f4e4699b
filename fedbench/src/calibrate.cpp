#include "calibrate.hpp"

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "affinity.hpp"
#include "trace.hpp"

namespace fedbench {
namespace {

constexpr std::size_t kBatch = 128;
constexpr std::size_t kIn = 5;
constexpr std::size_t kHidden = 32;
constexpr std::size_t kOut = 15;
constexpr int kSteps = 240;

volatile double observed = 0.0;

/// out[r][c] = sum_k a[r][k] * b[k][c], row-major, fresh allocation as the
/// program's matrices make.
std::vector<double> matmul(const std::vector<double>& a,
                           const std::vector<double>& b, std::size_t rows,
                           std::size_t inner, std::size_t cols) {
  std::vector<double> out(rows * cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t k = 0; k < inner; ++k) {
      const double v = a[r * inner + k];
      for (std::size_t c = 0; c < cols; ++c)
        out[r * cols + c] += v * b[k * cols + c];
    }
  return out;
}

/// out = a^T b for a: rows x ac, b: rows x bc.
std::vector<double> transpose_matmul(const std::vector<double>& a,
                                     const std::vector<double>& b,
                                     std::size_t rows, std::size_t ac,
                                     std::size_t bc) {
  std::vector<double> out(ac * bc, 0.0);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t i = 0; i < ac; ++i) {
      const double v = a[r * ac + i];
      for (std::size_t j = 0; j < bc; ++j) out[i * bc + j] += v * b[r * bc + j];
    }
  return out;
}

/// out = a b^T for a: rows x ac, b: bc x ac.
std::vector<double> matmul_transpose(const std::vector<double>& a,
                                     const std::vector<double>& b,
                                     std::size_t rows, std::size_t ac,
                                     std::size_t bc) {
  std::vector<double> out(rows * bc, 0.0);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t j = 0; j < bc; ++j) {
      double sum = 0.0;
      for (std::size_t i = 0; i < ac; ++i) sum += a[r * ac + i] * b[j * ac + i];
      out[r * bc + j] = sum;
    }
  return out;
}

void adam(std::vector<double>& w, const std::vector<double>& g,
          std::vector<double>& m, std::vector<double>& v, int t) {
  const double b1 = 0.9;
  const double b2 = 0.999;
  const double c1 = 1.0 - std::pow(b1, t);
  const double c2 = 1.0 - std::pow(b2, t);
  for (std::size_t i = 0; i < w.size(); ++i) {
    m[i] = b1 * m[i] + (1.0 - b1) * g[i];
    v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
    w[i] -= 1e-3 * (m[i] / c1) / (std::sqrt(v[i] / c2) + 1e-8);
  }
}

}  // namespace

double calibration_s() {
  // Deterministic inputs and weights from a linear congruential stream.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 11) * 0x1.0p-53 - 0.5;
  };
  std::vector<double> x(kBatch * kIn), target(kBatch * kOut);
  std::vector<double> w1(kIn * kHidden), w2(kHidden * kOut);
  for (double& e : x) e = next();
  for (double& e : target) e = next();
  for (double& e : w1) e = next();
  for (double& e : w2) e = next();
  std::vector<double> m1(w1.size()), v1(w1.size()), m2(w2.size()),
      v2(w2.size());

  const std::int64_t wait0 = cpu_wait_ns();
  const std::int64_t start = now_ns();
  double sink = 0.0;
  for (int step = 1; step <= kSteps; ++step) {
    std::vector<double> hidden = matmul(x, w1, kBatch, kIn, kHidden);
    for (double& e : hidden) e = e > 0.0 ? e : 0.0;
    std::vector<double> out = matmul(hidden, w2, kBatch, kHidden, kOut);
    for (std::size_t i = 0; i < out.size(); ++i) out[i] -= target[i];
    const std::vector<double> g2 =
        transpose_matmul(hidden, out, kBatch, kHidden, kOut);
    std::vector<double> dh = matmul_transpose(out, w2, kBatch, kOut, kHidden);
    for (std::size_t i = 0; i < dh.size(); ++i)
      if (hidden[i] <= 0.0) dh[i] = 0.0;
    const std::vector<double> g1 = transpose_matmul(x, dh, kBatch, kIn, kHidden);
    adam(w1, g1, m1, v1, step);
    adam(w2, g2, m2, v2, step);
    // A scalar recurrence with libm calls, like the simulator's models.
    double temp = 45.0;
    for (std::size_t i = 0; i < kBatch; ++i)
      temp += 0.01 * (std::exp(-0.02 * temp) * out[i] - 0.001 * temp);
    sink += temp + w1[0];
  }
  const double wall_s = static_cast<double>(now_ns() - start) / 1e9;
  const double own = wall_s - static_cast<double>(cpu_wait_ns() - wait0) / 1e9;
  observed = sink;  // keeps the work from being optimised away
  return own;
}

}  // namespace fedbench
