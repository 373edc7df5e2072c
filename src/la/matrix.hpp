// Dense row-major matrix over double or std::complex<double>.
//
// This is the numerical workhorse shared by the neural-network stack
// (real matrices) and the circuit simulator's MNA systems (complex
// matrices for AC analysis). It deliberately stays small: dynamic 2-D
// storage, elementwise arithmetic, and one register-blocked real matmul
// kernel. Anything fancier (Cholesky, sparse LU) lives in sibling headers.
#pragma once

#include <cassert>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace gcnrl::la {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, T fill = T{})
      : rows_(rows), cols_(cols), d_(static_cast<std::size_t>(rows) * cols, fill) {
    assert(rows >= 0 && cols >= 0);
  }
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = static_cast<int>(rows.size());
    cols_ = rows_ > 0 ? static_cast<int>(rows.begin()->size()) : 0;
    d_.reserve(static_cast<std::size_t>(rows_) * cols_);
    for (const auto& r : rows) {
      assert(static_cast<int>(r.size()) == cols_);
      d_.insert(d_.end(), r.begin(), r.end());
    }
  }

  static Matrix zeros(int r, int c) { return Matrix(r, c); }
  static Matrix identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }
  static Matrix filled(int r, int c, T v) { return Matrix(r, c, v); }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return d_.size(); }
  [[nodiscard]] bool empty() const { return d_.empty(); }

  T& operator()(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return d_[static_cast<std::size_t>(r) * cols_ + c];
  }
  const T& operator()(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return d_[static_cast<std::size_t>(r) * cols_ + c];
  }
  T* data() { return d_.data(); }
  const T* data() const { return d_.data(); }
  T* row_ptr(int r) { return d_.data() + static_cast<std::size_t>(r) * cols_; }
  const T* row_ptr(int r) const {
    return d_.data() + static_cast<std::size_t>(r) * cols_;
  }

  Matrix& operator+=(const Matrix& o) {
    assert(same_shape(o));
    for (std::size_t i = 0; i < d_.size(); ++i) d_[i] += o.d_[i];
    return *this;
  }
  Matrix& operator-=(const Matrix& o) {
    assert(same_shape(o));
    for (std::size_t i = 0; i < d_.size(); ++i) d_[i] -= o.d_[i];
    return *this;
  }
  Matrix& operator*=(T s) {
    for (auto& v : d_) v *= s;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, T s) { return a *= s; }
  friend Matrix operator*(T s, Matrix a) { return a *= s; }

  [[nodiscard]] Matrix transpose() const {
    Matrix t(cols_, rows_);
    for (int r = 0; r < rows_; ++r) {
      for (int c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    }
    return t;
  }

  [[nodiscard]] bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  void fill(T v) {
    for (auto& x : d_) x = v;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<T> d_;
};

using Mat = Matrix<double>;
using CMat = Matrix<std::complex<double>>;

// --- matrix products -------------------------------------------------
//
// One register-blocked kernel serves every real matrix product: C = A·B,
// or C += A·B when `accumulate` is set. A is addressed through strides,
// A(i, p) = a[i * a_row + p * a_col], so Aᵀ·B is the same call with the
// strides swapped; B and C are row-major with leading dimensions ldb and
// ldc. Each row of C is computed a block of columns at a time, in vector
// accumulators (la/simd.hpp) held in registers across the whole p loop.
//
// Versions. The row blocks are built twice on x86-64:
//  * baseline (x86-64 SSE2, or AArch64 NEON): 16 columns in eight Double2
//    accumulators, then 8, then 2, then one. Eight independent add chains
//    hide the add latency that four leave exposed at the learner's
//    9 x 32 x 32 shapes;
//  * avx2: one full 32-column learner row in eight Double4 accumulators,
//    then the baseline's blocks for the rest of the row.
// matmul_kernel runs the widest version the host supports, picked once
// while the library's static initializers run (__builtin_cpu_supports).
// There is no switch to override it: every version gives the same bits.
//
// Op-order contract (what callers may rely on bit for bit, in every
// version): every c(i, j) is the p-ordered sum, from +0, of the products
// a(i, p)·b(p, j) taken in ascending p, skipping each term whose a(i, p)
// compares equal to 0 (so ±0 entries of A cost nothing). With
// `accumulate`, that finished sum is added to the old c(i, j) once:
// exactly `c += (A·B)` through a temporary. Each lane op is one IEEE
// multiply or add, so the block width never shows in the bits. No FMA
// contraction: the gcnrl target is built with -ffp-contract=off (PUBLIC,
// so code that includes this header is too), which also covers AArch64,
// whose baseline ISA has FMA. test_la's Matrix.KernelNeverFusesMultiplyAdd
// and tools/check_no_fma.sh check it. For finite inputs the skipped terms
// change nothing: a sum from +0 is never -0, and adding ±0 to it leaves
// it unchanged.
void matmul_kernel(int n, int k, int m, const double* a, std::ptrdiff_t a_row,
                   std::ptrdiff_t a_col, const double* b, std::ptrdiff_t ldb,
                   double* c, std::ptrdiff_t ldc, bool accumulate);

using MatmulKernelFn = void (*)(int n, int k, int m, const double* a,
                                std::ptrdiff_t a_row, std::ptrdiff_t a_col,
                                const double* b, std::ptrdiff_t ldb, double* c,
                                std::ptrdiff_t ldc, bool accumulate);

// One build of the kernel, callable directly (by tests and benches).
struct MatmulKernelVersion {
  const char* name;  // "baseline" or "avx2"
  bool supported;    // the host can run it
  MatmulKernelFn run;
};

// Every version built into this library, narrowest first.
std::span<const MatmulKernelVersion> matmul_kernel_versions();
// The name of the version matmul_kernel runs on this host.
const char* matmul_kernel_name();

// C = A·B.
Mat matmul(const Mat& a, const Mat& b);
// C = Aᵀ·B without materializing the transpose.
Mat matmul_tn(const Mat& a, const Mat& b);
// C = A·Bᵀ: the kernel runs against a transposed copy of B.
Mat matmul_nt(const Mat& a, const Mat& b);

template <typename T>
Matrix<T> hadamard(const Matrix<T>& a, const Matrix<T>& b) {
  assert(a.same_shape(b));
  Matrix<T> c = a;
  for (int r = 0; r < a.rows(); ++r) {
    for (int col = 0; col < a.cols(); ++col) c(r, col) *= b(r, col);
  }
  return c;
}

// Frobenius-norm helpers (real matrices).
double frobenius_norm(const Mat& m);
double max_abs(const Mat& m);
bool all_finite(const Mat& m);

}  // namespace gcnrl::la
