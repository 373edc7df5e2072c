// Gaussian-process regression surrogate for the BO/MACE baselines.
//
// Matern-5/2 kernel with a single isotropic lengthscale, signal variance
// and noise variance; hyperparameters fitted by maximizing the log
// marginal likelihood over a small grid around median-distance heuristics
// (robust and deterministic — no fragile inner gradient loop). Targets are
// standardized internally.
//
// Operation-order contract. BO and MACE transcripts are pinned bit for bit
// (test_opt's golden transcripts and its per-point reference GP), so the
// fast paths below keep every sum in its original order:
//   - Distance: sq_dist(a, b) sums (a[d] - b[d])^2 over d = 0, 1, ... in
//     order; r = sqrt(sq_dist). fit computes r once per training pair and
//     shares it between the median heuristic and all 15 grid points.
//   - Kernel: signal_var * matern52(r, ls), with noise + 1e-8 (summed
//     first) added to the diagonal. fit builds one kernel matrix per
//     lengthscale and adds each noise level to a copy of its diagonal.
//   - Grid: lengthscale multipliers {0.33, 0.66, 1, 2, 4} outer, noise
//     {1e-6, 1e-4, 1e-2} inner; the first strictly best log marginal
//     likelihood wins, and its factor and alpha = K^-1 y are kept. If no
//     grid point wins, fit factors at (ls0, 1e-4) and throws if that fails.
//   - Prediction: mean = sum_i k_i * alpha_i and the variance reduction
//     sum_i v_i^2 (v = L^-1 k) both run in i order; the forward
//     substitution keeps la::Cholesky's per-column order.
#pragma once

#include <optional>
#include <vector>

#include "la/cholesky.hpp"
#include "la/matrix.hpp"

namespace gcnrl::opt {

struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;
};

class GaussianProcess {
 public:
  GaussianProcess() = default;

  // Fit to data (rows of x are points). Refits hyperparameters.
  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y);

  [[nodiscard]] GpPrediction predict(const std::vector<double>& x) const;
  // predict() for every point of xs, through one kernel block and one
  // multi-column triangular solve per tile of points. Bitwise equal to
  // calling predict() on each point.
  [[nodiscard]] std::vector<GpPrediction> predict_batch(
      const std::vector<std::vector<double>>& xs) const;
  [[nodiscard]] bool fitted() const { return fitted_; }
  [[nodiscard]] double lengthscale() const { return lengthscale_; }
  [[nodiscard]] double noise() const { return noise_; }
  [[nodiscard]] int num_points() const { return static_cast<int>(x_.size()); }
  // Cholesky factor of the kernel matrix at (lengthscale(), noise()).
  // Requires fitted().
  [[nodiscard]] const la::Cholesky& factor() const { return *chol_; }

 private:
  [[nodiscard]] double kernel(const std::vector<double>& a,
                              const std::vector<double>& b) const;

  std::vector<std::vector<double>> x_;
  std::vector<double> y_;           // standardized targets
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  double lengthscale_ = 1.0;
  double signal_var_ = 1.0;
  double noise_ = 1e-4;
  std::vector<double> alpha_;       // K^-1 y
  std::optional<la::Cholesky> chol_;
  bool fitted_ = false;
};

}  // namespace gcnrl::opt
