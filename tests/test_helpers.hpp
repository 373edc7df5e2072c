// Shared helpers for the test suites (not part of the installed API).
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
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
