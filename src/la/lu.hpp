// LU decomposition with partial pivoting, templated over double /
// std::complex<double>.
//
// The dense reference for la::SparseLu / la::SparseSweepLu (the
// simulator's MNA engine) in the tests, and a general one-shot solver.
// Factor once, then solve one or more right-hand sides (A x = b, A^T x =
// b, A^H x = b).
#pragma once

#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "la/matrix.hpp"

namespace gcnrl::la {

struct SingularMatrixError : std::runtime_error {
  SingularMatrixError() : std::runtime_error("LU: matrix is singular") {}
};

template <typename T>
class Lu {
 public:
  explicit Lu(Matrix<T> a) : lu_(std::move(a)), piv_(lu_.rows()) {
    if (lu_.rows() != lu_.cols()) {
      throw std::invalid_argument("Lu: matrix must be square");
    }
    factor();
  }

  // Solve A x = b for a single RHS vector (b.size() == n).
  std::vector<T> solve(const std::vector<T>& b) const {
    const int n = lu_.rows();
    if (static_cast<int>(b.size()) != n) {
      throw std::invalid_argument("Lu::solve: RHS size mismatch");
    }
    std::vector<T> x(n);
    for (int i = 0; i < n; ++i) x[i] = b[piv_[i]];
    // Forward substitution (L has unit diagonal).
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
    }
    // Back substitution.
    for (int i = n - 1; i >= 0; --i) {
      for (int j = i + 1; j < n; ++j) x[i] -= lu_(i, j) * x[j];
      x[i] /= lu_(i, i);
    }
    return x;
  }

  // Solve A^T x = b (real) / A^H x = b when conjugate=true (complex).
  std::vector<T> solve_transposed(const std::vector<T>& b,
                                  bool conjugate = false) const {
    const int n = lu_.rows();
    if (static_cast<int>(b.size()) != n) {
      throw std::invalid_argument("Lu::solve_transposed: RHS size mismatch");
    }
    auto elem = [&](int i, int j) {
      if constexpr (std::is_same_v<T, std::complex<double>>) {
        return conjugate ? std::conj(lu_(i, j)) : lu_(i, j);
      } else {
        (void)conjugate;
        return lu_(i, j);
      }
    };
    // A = P^T L U  =>  A^T = U^T L^T P. Solve U^T y = b, L^T z = y,
    // then x = P^T z (i.e. x[piv[i]] = z[i]).
    std::vector<T> y(b);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < i; ++j) y[i] -= elem(j, i) * y[j];
      y[i] /= elem(i, i);
    }
    for (int i = n - 1; i >= 0; --i) {
      for (int j = i + 1; j < n; ++j) y[i] -= elem(j, i) * y[j];
    }
    std::vector<T> x(n);
    for (int i = 0; i < n; ++i) x[piv_[i]] = y[i];
    return x;
  }

  [[nodiscard]] int size() const { return lu_.rows(); }

 private:
  static double mag(const T& v) {
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      return std::abs(v);
    } else {
      return std::fabs(v);
    }
  }

  void factor() {
    const int n = lu_.rows();
    for (int i = 0; i < n; ++i) piv_[i] = i;
    for (int k = 0; k < n; ++k) {
      // Partial pivot: largest magnitude in column k at/below the diagonal.
      int p = k;
      double best = mag(lu_(k, k));
      for (int i = k + 1; i < n; ++i) {
        const double m = mag(lu_(i, k));
        if (m > best) {
          best = m;
          p = i;
        }
      }
      if (best < 1e-300) throw SingularMatrixError{};
      if (p != k) {
        for (int j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(p, j));
        std::swap(piv_[k], piv_[p]);
      }
      const T pivot = lu_(k, k);
      for (int i = k + 1; i < n; ++i) {
        const T factor = lu_(i, k) / pivot;
        lu_(i, k) = factor;
        if (factor == T{}) continue;
        for (int j = k + 1; j < n; ++j) lu_(i, j) -= factor * lu_(k, j);
      }
    }
  }

  Matrix<T> lu_;
  std::vector<int> piv_;
};

// Convenience one-shot solvers.
std::vector<double> solve(const Mat& a, const std::vector<double>& b);
std::vector<std::complex<double>> solve(
    const CMat& a, const std::vector<std::complex<double>>& b);

}  // namespace gcnrl::la
