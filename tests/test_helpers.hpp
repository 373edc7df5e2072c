// Shared helpers for the test suites (not part of the installed API).
#pragma once

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "la/cholesky.hpp"
#include "la/matrix.hpp"

namespace gcnrl::testing {

// RAII helper: sets an environment variable for one test and restores the
// previous value (or unsets) on destruction, so suites stay order-independent.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      had_old_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  bool had_old_ = false;
  std::string old_;
};

// Per-entry references for la::Cholesky's blocked loops: the textbook
// left-looking (dot-product) factorization and forward substitution. The
// library's factor and solves must match these bit for bit (see the
// operation-order contract in la/cholesky.hpp).
inline la::Mat reference_cholesky(const la::Mat& a) {
  const int n = a.rows();
  la::Mat l(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (int k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      if (i == j) {
        if (sum <= 0.0 || !std::isfinite(sum)) {
          throw la::NotPositiveDefiniteError{};
        }
        l(i, i) = std::sqrt(sum);
      } else {
        l(i, j) = sum / l(j, j);
      }
    }
  }
  return l;
}

inline std::vector<double> reference_solve_lower(const la::Mat& l,
                                                 const std::vector<double>& b) {
  const int n = l.rows();
  std::vector<double> y(b);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < i; ++j) y[i] -= l(i, j) * y[j];
    y[i] /= l(i, i);
  }
  return y;
}

// Solve L^T x = y (back substitution), as la::Cholesky::solve does after
// the forward pass.
inline std::vector<double> reference_solve_upper(const la::Mat& l,
                                                 std::vector<double> y) {
  const int n = l.rows();
  for (int i = n - 1; i >= 0; --i) {
    for (int j = i + 1; j < n; ++j) y[i] -= l(j, i) * y[j];
    y[i] /= l(i, i);
  }
  return y;
}

struct SingularMatrixError : std::runtime_error {
  SingularMatrixError() : std::runtime_error("LU: matrix is singular") {}
};

// Dense LU with partial pivoting over double or std::complex<double>: the
// reference that la::SparseLu / la::SparseSweepLu (the simulator's MNA
// engine) are checked against. Factor once, then solve A x = b, A^T x = b
// or A^H x = b.
template <typename T>
class Lu {
 public:
  explicit Lu(la::Matrix<T> a) : lu_(std::move(a)), piv_(lu_.rows()) {
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

 private:
  void factor() {
    const int n = lu_.rows();
    for (int i = 0; i < n; ++i) piv_[i] = i;
    for (int k = 0; k < n; ++k) {
      // Partial pivot: largest magnitude in column k at/below the diagonal.
      int p = k;
      double best = std::abs(lu_(k, k));
      for (int i = k + 1; i < n; ++i) {
        const double m = std::abs(lu_(i, k));
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

  la::Matrix<T> lu_;
  std::vector<int> piv_;
};

// One-shot dense solve of A x = b.
template <typename T>
std::vector<T> dense_solve(const la::Matrix<T>& a, const std::vector<T>& b) {
  return Lu<T>(a).solve(b);
}

// The bits of a double, for bitwise comparisons and golden hashes.
inline std::uint64_t bits_of(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// FNV-1a over the bits of a stream of doubles: the golden-transcript hash.
struct Fnv1a {
  std::uint64_t h = 14695981039346656037ULL;
  void add(double v) {
    const std::uint64_t bits = bits_of(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  void add(const la::Mat& m) {
    for (std::size_t e = 0; e < m.size(); ++e) add(m.data()[e]);
  }
};

}  // namespace gcnrl::testing
