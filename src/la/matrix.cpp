#include "la/matrix.hpp"

#include <cmath>

#include "la/simd.hpp"

namespace gcnrl::la {

namespace {

// One row of C, columns [0, 2W): W Double2 accumulators held across the
// whole p loop (fully unrolled, so they stay in registers).
template <int W>
void row_block(const double* __restrict ai, std::ptrdiff_t a_col, int k,
               const double* __restrict b, std::ptrdiff_t ldb,
               double* __restrict cj, bool accumulate) {
  Double2 acc[W];
#pragma GCC unroll 8
  for (int w = 0; w < W; ++w) acc[w] = splat2(0.0);
  for (int p = 0; p < k; ++p) {
    const double aip = ai[p * a_col];
    if (aip == 0.0) continue;
    const Double2 s = splat2(aip);
    const double* bp = b + p * ldb;
#pragma GCC unroll 8
    for (int w = 0; w < W; ++w) acc[w] += s * load2(bp + 2 * w);
  }
#pragma GCC unroll 8
  for (int w = 0; w < W; ++w) {
    store2(cj + 2 * w, accumulate ? load2(cj + 2 * w) + acc[w] : acc[w]);
  }
}

}  // namespace

void matmul_kernel(int n, int k, int m, const double* a, std::ptrdiff_t a_row,
                   std::ptrdiff_t a_col, const double* b, std::ptrdiff_t ldb,
                   double* c, std::ptrdiff_t ldc, bool accumulate) {
  for (int i = 0; i < n; ++i) {
    const double* ai = a + i * a_row;
    double* ci = c + i * ldc;
    int j = 0;
    for (; j + 16 <= m; j += 16) {
      row_block<8>(ai, a_col, k, b + j, ldb, ci + j, accumulate);
    }
    for (; j + 8 <= m; j += 8) {
      row_block<4>(ai, a_col, k, b + j, ldb, ci + j, accumulate);
    }
    for (; j + 2 <= m; j += 2) {
      row_block<1>(ai, a_col, k, b + j, ldb, ci + j, accumulate);
    }
    for (; j < m; ++j) {
      double acc = 0.0;
      for (int p = 0; p < k; ++p) {
        const double aip = ai[p * a_col];
        if (aip == 0.0) continue;
        acc += aip * b[p * ldb + j];
      }
      ci[j] = accumulate ? ci[j] + acc : acc;
    }
  }
}

Mat matmul(const Mat& a, const Mat& b) {
  assert(a.cols() == b.rows());
  Mat c(a.rows(), b.cols());
  matmul_kernel(a.rows(), a.cols(), b.cols(), a.data(), a.cols(), 1, b.data(),
                b.cols(), c.data(), c.cols(), false);
  return c;
}

Mat matmul_tn(const Mat& a, const Mat& b) {
  assert(a.rows() == b.rows());
  Mat c(a.cols(), b.cols());
  matmul_kernel(a.cols(), a.rows(), b.cols(), a.data(), 1, a.cols(), b.data(),
                b.cols(), c.data(), c.cols(), false);
  return c;
}

Mat matmul_nt(const Mat& a, const Mat& b) {
  assert(a.cols() == b.cols());
  const Mat bt = b.transpose();
  Mat c(a.rows(), b.rows());
  matmul_kernel(a.rows(), a.cols(), b.rows(), a.data(), a.cols(), 1,
                bt.data(), bt.cols(), c.data(), c.cols(), false);
  return c;
}

double frobenius_norm(const Mat& m) {
  double acc = 0.0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) acc += m(r, c) * m(r, c);
  }
  return std::sqrt(acc);
}

double max_abs(const Mat& m) {
  double acc = 0.0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) acc = std::max(acc, std::abs(m(r, c)));
  }
  return acc;
}

bool all_finite(const Mat& m) {
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      if (!std::isfinite(m(r, c))) return false;
    }
  }
  return true;
}

}  // namespace gcnrl::la
