#include "opt/gp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "la/simd.hpp"

namespace gcnrl::opt {
namespace {

// Points per kernel block in predict_batch (a multiple of 8): an
// n x kTile block (n <= 400 training points) stays in L2 through the
// triangular solve.
constexpr int kTile = 32;

double sq_dist(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double matern52(double r, double ls) {
  const double s = std::sqrt(5.0) * r / ls;
  return (1.0 + s + s * s / 3.0) * std::exp(-s);
}

}  // namespace

double GaussianProcess::kernel(const std::vector<double>& a,
                               const std::vector<double>& b) const {
  return signal_var_ * matern52(std::sqrt(sq_dist(a, b)), lengthscale_);
}

void GaussianProcess::fit(const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y) {
  if (x.size() != y.size() || x.empty()) {
    throw std::invalid_argument("GaussianProcess::fit: bad data");
  }
  x_ = x;
  // Standardize targets.
  const int n = static_cast<int>(y.size());
  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  y_mean_ /= n;
  double var = 0.0;
  for (double v : y) var += (v - y_mean_) * (v - y_mean_);
  y_std_ = n > 1 ? std::sqrt(var / (n - 1)) : 1.0;
  if (y_std_ < 1e-12) y_std_ = 1.0;
  y_.resize(n);
  for (int i = 0; i < n; ++i) y_[i] = (y[i] - y_mean_) / y_std_;
  signal_var_ = 1.0;

  // Pairwise distances (lower triangle), shared by the median heuristic
  // and every grid point.
  la::Mat r(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) r(i, j) = std::sqrt(sq_dist(x_[i], x_[j]));
  }

  // Median-heuristic lengthscale, refined over a small ML grid.
  std::vector<double> dists;
  const int cap = std::min(n, 64);
  for (int i = 0; i < cap; ++i) {
    for (int j = i + 1; j < cap; ++j) dists.push_back(r(j, i));
  }
  double ls0 = 1.0;
  if (!dists.empty()) {
    std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                     dists.end());
    ls0 = std::max(dists[dists.size() / 2], 1e-3);
  }
  // Kernel matrix (lower triangle) at lengthscale ls, without noise.
  la::Mat k(n, n);
  auto fill_kernel = [&](double ls) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j <= i; ++j) {
        k(i, j) = signal_var_ * matern52(r(i, j), ls);
      }
    }
  };
  auto with_noise = [&](double noise) {
    la::Mat kn = k;
    for (int i = 0; i < n; ++i) kn(i, i) += noise + 1e-8;
    return kn;
  };
  fitted_ = false;
  chol_.reset();
  double best_ll = -std::numeric_limits<double>::infinity();
  double best_ls = ls0, best_noise = 1e-4;
  for (double ls_mul : {0.33, 0.66, 1.0, 2.0, 4.0}) {
    fill_kernel(ls0 * ls_mul);
    for (double noise : {1e-6, 1e-4, 1e-2}) {
      try {
        la::Cholesky chol(with_noise(noise));
        std::vector<double> a = chol.solve(y_);
        double fit = 0.0;
        for (int i = 0; i < n; ++i) fit += y_[i] * a[i];
        const double ll = -0.5 * fit - 0.5 * chol.log_det() -
                          0.5 * n * std::log(2.0 * M_PI);
        if (ll > best_ll) {
          best_ll = ll;
          best_ls = ls0 * ls_mul;
          best_noise = noise;
          chol_.emplace(std::move(chol));
          alpha_ = std::move(a);
        }
      } catch (const la::NotPositiveDefiniteError&) {
      }
    }
  }
  lengthscale_ = best_ls;
  noise_ = best_noise;
  if (!chol_) {
    // No grid point won: factor at the heuristic (throws if not SPD).
    fill_kernel(best_ls);
    chol_.emplace(with_noise(best_noise));
    alpha_ = chol_->solve(y_);
  }
  fitted_ = true;
}

GpPrediction GaussianProcess::predict(const std::vector<double>& x) const {
  // One point: dot-product loops, not a padded batch of one (the blocked
  // loops would do eight lanes of work for it, about twice the time).
  if (!fitted_) throw std::runtime_error("GaussianProcess: not fitted");
  const int n = static_cast<int>(x_.size());
  std::vector<double> kx(n);
  for (int i = 0; i < n; ++i) kx[i] = kernel(x_[i], x);
  double mu = 0.0;
  for (int i = 0; i < n; ++i) mu += kx[i] * alpha_[i];
  // var = k(x,x) - kx^T K^-1 kx via the Cholesky solve.
  const auto v = chol_->solve_lower(kx);
  double reduction = 0.0;
  for (double vi : v) reduction += vi * vi;
  const double var = std::max(kernel(x, x) - reduction, 1e-12);
  return {y_mean_ + y_std_ * mu, y_std_ * y_std_ * var};
}

std::vector<GpPrediction> GaussianProcess::predict_batch(
    const std::vector<std::vector<double>>& xs) const {
  if (!fitted_) throw std::runtime_error("GaussianProcess: not fitted");
  const int n = num_points();
  const int dim = static_cast<int>(x_.front().size());
  const int m = static_cast<int>(xs.size());
  std::vector<GpPrediction> out(xs.size());
  for (int c0 = 0; c0 < m; c0 += kTile) {
    const int w = std::min(kTile, m - c0);
    // The tile's points as columns, zero-padded to a multiple of 8 so the
    // blocked loops below (here and in the solve) need no scalar tail. The
    // padding columns are computed and ignored.
    const int wp = (w + 7) / 8 * 8;
    la::Mat xt(dim, wp);
    for (int c = 0; c < w; ++c) {
      for (int d = 0; d < dim; ++d) xt(d, c) = xs[c0 + c][d];
    }
    // Kernel block k(i, c) = k(x_i, x_c), each distance summed in d order,
    // eight columns at a time.
    la::Mat k(n, wp);
    for (int i = 0; i < n; ++i) {
      const double* xi = x_[i].data();
      double* ki = k.row_ptr(i);
      for (int c = 0; c < wp; c += 8) {
        la::Double2 s0{}, s1{}, s2{}, s3{};
        for (int d = 0; d < dim; ++d) {
          const la::Double2 a = la::splat2(xi[d]);
          const double* b = xt.row_ptr(d) + c;
          const la::Double2 d0 = a - la::load2(b);
          const la::Double2 d1 = a - la::load2(b + 2);
          const la::Double2 d2 = a - la::load2(b + 4);
          const la::Double2 d3 = a - la::load2(b + 6);
          s0 += d0 * d0;
          s1 += d1 * d1;
          s2 += d2 * d2;
          s3 += d3 * d3;
        }
        la::store2(ki + c, s0);
        la::store2(ki + c + 2, s1);
        la::store2(ki + c + 4, s2);
        la::store2(ki + c + 6, s3);
      }
      for (int c = 0; c < w; ++c) {
        ki[c] = signal_var_ * matern52(std::sqrt(ki[c]), lengthscale_);
      }
    }
    std::vector<double> mu(w, 0.0);
    for (int i = 0; i < n; ++i) {
      for (int c = 0; c < w; ++c) mu[c] += k(i, c) * alpha_[i];
    }
    // var = k(x,x) - k^T K^-1 k = k(x,x) - |L^-1 k|^2.
    chol_->solve_lower_in_place(k);
    std::vector<double> reduction(w, 0.0);
    for (int i = 0; i < n; ++i) {
      for (int c = 0; c < w; ++c) reduction[c] += k(i, c) * k(i, c);
    }
    for (int c = 0; c < w; ++c) {
      const auto& x = xs[c0 + c];
      const double var = std::max(kernel(x, x) - reduction[c], 1e-12);
      out[c0 + c] = {y_mean_ + y_std_ * mu[c], y_std_ * y_std_ * var};
    }
  }
  return out;
}

}  // namespace gcnrl::opt
