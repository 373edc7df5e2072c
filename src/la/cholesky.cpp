#include "la/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "la/simd.hpp"

namespace gcnrl::la {

namespace {

// Columns per panel of the factorization.
constexpr int kPanel = 4;

// r[j] -= a[q] * c_q[j] for q = 0..3 in that order, j in [lo, hi): one
// panel's worth of right-looking updates for one row. A standalone
// function over restrict-qualified pointers so it compiles to packed code.
// `a` may point into r below lo (the row's own panel entries): read, never
// written.
inline void subtract_panel(double* __restrict r, const double* __restrict c0,
                           const double* __restrict c1,
                           const double* __restrict c2,
                           const double* __restrict c3, const double* a,
                           int lo, int hi) {
  const double a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3];
  for (int j = lo; j < hi; ++j) {
    double v = r[j];
    v -= a0 * c0[j];
    v -= a1 * c1[j];
    v -= a2 * c2[j];
    v -= a3 * c3[j];
    r[j] = v;
  }
}

}  // namespace

Cholesky::Cholesky(Mat a) : l_(std::move(a)) {
  if (l_.rows() != l_.cols()) {
    throw std::invalid_argument("Cholesky: matrix must be square");
  }
  const int n = l_.rows();
  // Right-looking in panels of kPanel columns. Inside a panel each column
  // is finished (sqrt, divide) and subtracted from the panel's later
  // columns; the finished columns are copied out contiguously, and then
  // the whole panel is subtracted from the trailing lower triangle in one
  // pass, column by column, so each entry still sees k in order.
  std::vector<double> cols(static_cast<std::size_t>(kPanel) * n);
  auto col = [&](int q) {
    return cols.data() + static_cast<std::size_t>(q) * n;
  };
  for (int kb = 0; kb < n; kb += kPanel) {
    const int ke = std::min(n, kb + kPanel);
    for (int k = kb; k < ke; ++k) {
      double* rk = l_.row_ptr(k);
      const double pivot = rk[k];
      if (pivot <= 0.0 || !std::isfinite(pivot)) {
        throw NotPositiveDefiniteError{};
      }
      const double lkk = std::sqrt(pivot);
      rk[k] = lkk;
      std::fill(rk + k + 1, rk + n, 0.0);  // upper triangle of L
      double* ck = col(k - kb);
      for (int i = k + 1; i < n; ++i) {
        l_(i, k) /= lkk;
        ck[i] = l_(i, k);
      }
      for (int i = k + 1; i < n; ++i) {
        double* ri = l_.row_ptr(i);
        const int jhi = std::min(i, ke - 1);
        for (int j = k + 1; j <= jhi; ++j) ri[j] -= ck[i] * ck[j];
      }
    }
    // A short last panel has ke == n: no trailing rows.
    for (int i = ke; i < n; ++i) {
      double* ri = l_.row_ptr(i);
      subtract_panel(ri, col(0), col(1), col(2), col(3), ri + kb, ke, i + 1);
    }
  }
}

std::vector<double> Cholesky::solve_lower(const std::vector<double>& b) const {
  const int n = l_.rows();
  std::vector<double> y(b);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < i; ++j) y[i] -= l_(i, j) * y[j];
    y[i] /= l_(i, i);
  }
  return y;
}

void Cholesky::solve_lower_in_place(Mat& b) const {
  const int n = l_.rows();
  if (b.rows() != n) {
    throw std::invalid_argument("Cholesky::solve_lower_in_place: bad rows");
  }
  // Eight columns at a time, held in registers across the j loop; the
  // columns left over go one at a time.
  const int m = b.cols();
  for (int i = 0; i < n; ++i) {
    const double* li = l_.row_ptr(i);
    double* bi = b.row_ptr(i);
    int c = 0;
    for (; c + 8 <= m; c += 8) {
      Double2 a0 = load2(bi + c), a1 = load2(bi + c + 2);
      Double2 a2 = load2(bi + c + 4), a3 = load2(bi + c + 6);
      for (int j = 0; j < i; ++j) {
        const Double2 lij = splat2(li[j]);
        const double* bj = b.row_ptr(j) + c;
        a0 -= lij * load2(bj);
        a1 -= lij * load2(bj + 2);
        a2 -= lij * load2(bj + 4);
        a3 -= lij * load2(bj + 6);
      }
      const Double2 lii = splat2(li[i]);
      store2(bi + c, a0 / lii);
      store2(bi + c + 2, a1 / lii);
      store2(bi + c + 4, a2 / lii);
      store2(bi + c + 6, a3 / lii);
    }
    for (; c < m; ++c) {
      double acc = bi[c];
      for (int j = 0; j < i; ++j) acc -= li[j] * b(j, c);
      bi[c] = acc / li[i];
    }
  }
}

std::vector<double> Cholesky::solve(const std::vector<double>& b) const {
  const int n = l_.rows();
  std::vector<double> y = solve_lower(b);
  for (int i = n - 1; i >= 0; --i) {
    for (int j = i + 1; j < n; ++j) y[i] -= l_(j, i) * y[j];
    y[i] /= l_(i, i);
  }
  return y;
}

double Cholesky::log_det() const {
  double acc = 0.0;
  for (int i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

}  // namespace gcnrl::la
