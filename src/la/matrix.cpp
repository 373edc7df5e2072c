#include "la/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "la/simd.hpp"

namespace gcnrl::la {

namespace {

// One row of C, columns [0, 2W): W Double2 accumulators held across the
// whole p loop (fully unrolled, so they stay in registers). Always
// inlined, so each kernel version compiles it for its own target.
template <int W>
[[gnu::always_inline]] inline void row_block(
    const double* __restrict ai, std::ptrdiff_t a_col, int k,
    const double* __restrict b, std::ptrdiff_t ldb, double* __restrict cj,
    bool accumulate) {
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

// Columns [j, m) of one row of C: 16 at a time, then 8, then 2, then
// one. Every version ends its rows with these blocks.
[[gnu::always_inline]] inline void row_tail(const double* ai,
                                            std::ptrdiff_t a_col, int k,
                                            const double* b,
                                            std::ptrdiff_t ldb, double* ci,
                                            int j, int m, bool accumulate) {
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

// Baseline (SSE2 on x86-64, NEON on AArch64): 16 columns in eight
// Double2 accumulators.
void kernel_baseline(int n, int k, int m, const double* a,
                     std::ptrdiff_t a_row, std::ptrdiff_t a_col,
                     const double* b, std::ptrdiff_t ldb, double* c,
                     std::ptrdiff_t ldc, bool accumulate) {
  for (int i = 0; i < n; ++i) {
    row_tail(a + i * a_row, a_col, k, b, ldb, c + i * ldc, 0, m, accumulate);
  }
}

#if defined(__x86_64__)

// One row of C, columns [0, 4W): W Double4 accumulators, as row_block.
template <int W>
[[gnu::target("avx2"), gnu::always_inline]] inline void row_block4(
    const double* __restrict ai, std::ptrdiff_t a_col, int k,
    const double* __restrict b, std::ptrdiff_t ldb, double* __restrict cj,
    bool accumulate) {
  Double4 acc[W];
#pragma GCC unroll 8
  for (int w = 0; w < W; ++w) acc[w] = splat4(0.0);
  for (int p = 0; p < k; ++p) {
    const double aip = ai[p * a_col];
    if (aip == 0.0) continue;
    const Double4 s = splat4(aip);
    const double* bp = b + p * ldb;
#pragma GCC unroll 8
    for (int w = 0; w < W; ++w) acc[w] += s * load4(bp + 4 * w);
  }
#pragma GCC unroll 8
  for (int w = 0; w < W; ++w) {
    store4(cj + 4 * w, accumulate ? load4(cj + 4 * w) + acc[w] : acc[w]);
  }
}

// AVX2: one full 32-column learner row in eight Double4 accumulators,
// then the baseline's tails.
[[gnu::target("avx2")]] void kernel_avx2(int n, int k, int m, const double* a,
                                         std::ptrdiff_t a_row,
                                         std::ptrdiff_t a_col, const double* b,
                                         std::ptrdiff_t ldb, double* c,
                                         std::ptrdiff_t ldc, bool accumulate) {
  for (int i = 0; i < n; ++i) {
    const double* ai = a + i * a_row;
    double* ci = c + i * ldc;
    int j = 0;
    for (; j + 32 <= m; j += 32) {
      row_block4<8>(ai, a_col, k, b + j, ldb, ci + j, accumulate);
    }
    row_tail(ai, a_col, k, b, ldb, ci, j, m, accumulate);
  }
}

bool host_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}

#endif

// The widest version the host supports: the last supported entry.
const MatmulKernelVersion& widest_supported() {
  const auto versions = matmul_kernel_versions();
  return *std::find_if(
      versions.rbegin(), versions.rend(),
      [](const MatmulKernelVersion& v) { return v.supported; });
}

// The version matmul_kernel runs. Constant-initialized to the baseline,
// so a call from a static initializer that runs before the pick below
// still works, and gives the same bits.
constinit MatmulKernelFn active_kernel = kernel_baseline;

// The pick: once, while the library's static initializers run.
[[maybe_unused]] const bool kernel_picked =
    (active_kernel = widest_supported().run, true);

}  // namespace

std::span<const MatmulKernelVersion> matmul_kernel_versions() {
  static const MatmulKernelVersion versions[] = {
      {"baseline", true, kernel_baseline},
#if defined(__x86_64__)
      {"avx2", host_has_avx2(), kernel_avx2},
#endif
  };
  return versions;
}

const char* matmul_kernel_name() { return widest_supported().name; }

void matmul_kernel(int n, int k, int m, const double* a, std::ptrdiff_t a_row,
                   std::ptrdiff_t a_col, const double* b, std::ptrdiff_t ldb,
                   double* c, std::ptrdiff_t ldc, bool accumulate) {
  active_kernel(n, k, m, a, a_row, a_col, b, ldb, c, ldc, accumulate);
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
