// Cholesky factorization of symmetric positive-definite matrices.
//
// Used by the Gaussian-process surrogate in the Bayesian-optimization
// baselines (kernel matrices are SPD after jitter).
//
// Operation-order contract (the BO/MACE transcripts are pinned to these
// bits, see test_opt's golden transcripts and test_la's reference
// factorization):
//   - Factor: entry (i, j), j <= i, starts from a(i, j) and subtracts
//     l(i, k) * l(j, k) for k = 0, 1, ..., j - 1 in that order, then is
//     divided by l(j, j) (off-diagonal) or replaced by its sqrt (diagonal).
//     The factorization runs right-looking in panels of 4 columns (each
//     panel updates the trailing lower triangle column by column), which
//     applies exactly those subtractions in exactly that order, so it
//     equals the textbook left-looking dot-product form bit for bit and
//     throws on exactly the same matrices: the first pivot that is <= 0
//     or not finite.
//   - Forward substitution (solve_lower, solve_lower_in_place): y(i)
//     starts from b(i), subtracts l(i, j) * y(j) for j = 0, ..., i - 1 in
//     that order and is then divided by l(i, i).
// Do not reassociate these sums (no -ffast-math, no FMA contraction).
#pragma once

#include <stdexcept>
#include <vector>

#include "la/matrix.hpp"

namespace gcnrl::la {

struct NotPositiveDefiniteError : std::runtime_error {
  NotPositiveDefiniteError()
      : std::runtime_error("Cholesky: matrix is not positive definite") {}
};

class Cholesky {
 public:
  // Factors A = L L^T from the lower triangle of A (the upper triangle is
  // ignored). Throws NotPositiveDefiniteError if A is not SPD. Pass an
  // rvalue to factor in place without a copy.
  explicit Cholesky(Mat a);

  // Solve A x = b.
  [[nodiscard]] std::vector<double> solve(const std::vector<double>& b) const;
  // Solve L y = b (forward substitution only).
  [[nodiscard]] std::vector<double> solve_lower(
      const std::vector<double>& b) const;
  // Solve L Y = B for every column of B (n x m) in place. Each column gets
  // the same operations, in the same order, as solve_lower; the loops run
  // across columns so they vectorize.
  void solve_lower_in_place(Mat& b) const;
  // log |A| = 2 * sum(log diag(L)); needed for GP marginal likelihood.
  [[nodiscard]] double log_det() const;
  [[nodiscard]] const Mat& lower() const { return l_; }

 private:
  Mat l_;
};

}  // namespace gcnrl::la
