// Tests for the black-box optimizer baselines: CMA-ES, GP regression,
// Bayesian optimization and MACE on closed-form objectives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "opt/bayes_opt.hpp"
#include "opt/cma_es.hpp"
#include "opt/mace.hpp"
#include "opt/random_search.hpp"
#include "test_helpers.hpp"

namespace opt = gcnrl::opt;
using gcnrl::Rng;

namespace {

// Sphere: maximum 0 at x*.
double neg_sphere(const std::vector<double>& x,
                  const std::vector<double>& target) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - target[i];
    acc -= d * d;
  }
  return acc;
}

double run_loop(opt::Optimizer& o, int evals,
                const std::function<double(const std::vector<double>&)>& f) {
  double best = -1e300;
  int done = 0;
  while (done < evals) {
    const auto xs = o.ask();
    std::vector<double> ys;
    for (const auto& x : xs) {
      ys.push_back(f(x));
      best = std::max(best, ys.back());
      if (++done >= evals) break;
    }
    o.tell({xs.begin(), xs.begin() + ys.size()}, ys);
  }
  return best;
}

}  // namespace

TEST(RandomSearch, StaysInBounds) {
  opt::RandomSearch rs(6, Rng(1), 4);
  for (int it = 0; it < 20; ++it) {
    for (const auto& x : rs.ask()) {
      ASSERT_EQ(static_cast<int>(x.size()), 6);
      for (double v : x) {
        EXPECT_GE(v, -1.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }
}

TEST(CmaEs, ConvergesOnSphere) {
  const int dim = 8;
  std::vector<double> target(dim);
  Rng trng(3);
  for (auto& t : target) t = trng.uniform(-0.5, 0.5);
  opt::CmaEs es(dim, Rng(4));
  const double best = run_loop(
      es, 600, [&](const std::vector<double>& x) {
        return neg_sphere(x, target);
      });
  EXPECT_GT(best, -1e-3);
  // The distribution mean should be near the optimum too, not just a
  // lucky sample.
  EXPECT_LT(std::fabs(es.mean()[0] - target[0]), 0.1);
}

TEST(CmaEs, HandlesBoundaryOptimum) {
  // Optimum at the corner of the box: clipping must not break updates.
  const int dim = 4;
  std::vector<double> target(dim, 1.0);
  opt::CmaEs es(dim, Rng(5));
  const double best = run_loop(
      es, 500, [&](const std::vector<double>& x) {
        return neg_sphere(x, target);
      });
  EXPECT_GT(best, -0.05);
}

TEST(CmaEs, ImprovesOnRosenbrockStyleCoupling) {
  // Maximize -[(1 - x0)^2 + 5 (x1 - x0^2)^2] — curved valley.
  opt::CmaEs es(2, Rng(6));
  const double best = run_loop(es, 800, [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return -(a * a + 5.0 * b * b);
  });
  EXPECT_GT(best, -0.05);
}

TEST(CmaEs, PartialBatchTellAccepted) {
  opt::CmaEs es(3, Rng(7));
  auto xs = es.ask();
  ASSERT_GE(xs.size(), 2u);
  std::vector<std::vector<double>> partial(xs.begin(), xs.begin() + 2);
  EXPECT_NO_THROW(es.tell(partial, {0.1, 0.2}));
  EXPECT_THROW(es.tell({}, {}), std::invalid_argument);
}

TEST(Gp, InterpolatesTrainingData) {
  opt::GaussianProcess gp;
  std::vector<std::vector<double>> x = {{0.0}, {0.5}, {1.0}, {-0.7}};
  std::vector<double> y = {1.0, 2.0, -1.0, 0.3};
  gp.fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto p = gp.predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 0.15);
  }
}

TEST(Gp, UncertaintyGrowsAwayFromData) {
  opt::GaussianProcess gp;
  std::vector<std::vector<double>> x = {{0.0}, {0.1}, {0.2}};
  std::vector<double> y = {0.0, 0.1, 0.2};
  gp.fit(x, y);
  const auto near = gp.predict({0.1});
  const auto far = gp.predict({3.0});
  EXPECT_LT(near.variance, far.variance);
}

TEST(Gp, PredictionTracksSmoothFunction) {
  opt::GaussianProcess gp;
  Rng rng(8);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    const double xi = rng.uniform(-1.0, 1.0);
    x.push_back({xi});
    y.push_back(std::sin(3.0 * xi));
  }
  gp.fit(x, y);
  double max_err = 0.0;
  for (double xi = -0.9; xi <= 0.9; xi += 0.1) {
    max_err = std::max(max_err,
                       std::fabs(gp.predict({xi}).mean - std::sin(3.0 * xi)));
  }
  EXPECT_LT(max_err, 0.15);
}

namespace {

// Per-point reference for opt::GaussianProcess: the straightforward form
// of the same model (one kernel matrix and one Cholesky factorization per
// grid point, the winner factored again, dot-product predictions), on the
// left-looking reference factorization. fit() and predict_batch() must
// reproduce it bit for bit.
struct ReferenceGp {
  std::vector<std::vector<double>> x;
  std::vector<double> y;  // standardized
  double y_mean = 0.0, y_std = 1.0, ls = 1.0, noise = 1e-4;
  gcnrl::la::Mat l;
  std::vector<double> alpha;

  static double sq_dist(const std::vector<double>& a,
                        const std::vector<double>& b) {
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const double d = a[i] - b[i];
      acc += d * d;
    }
    return acc;
  }
  static double matern52(double r, double ls) {
    const double s = std::sqrt(5.0) * r / ls;
    return (1.0 + s + s * s / 3.0) * std::exp(-s);
  }
  static double kernel(const std::vector<double>& a,
                       const std::vector<double>& b, double ls) {
    return 1.0 * matern52(std::sqrt(sq_dist(a, b)), ls);
  }
  gcnrl::la::Mat kernel_matrix(double lsv, double nz) const {
    const int n = static_cast<int>(x.size());
    gcnrl::la::Mat k(n, n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j <= i; ++j) {
        k(i, j) = kernel(x[i], x[j], lsv);
        k(j, i) = k(i, j);
      }
      k(i, i) += nz + 1e-8;
    }
    return k;
  }
  void factor_at(double lsv, double nz) {
    ls = lsv;
    noise = nz;
    l = gcnrl::testing::reference_cholesky(kernel_matrix(lsv, nz));
    alpha = gcnrl::testing::reference_solve_upper(
        l, gcnrl::testing::reference_solve_lower(l, y));
  }

  ReferenceGp(const std::vector<std::vector<double>>& xs,
              const std::vector<double>& ys)
      : x(xs) {
    const int n = static_cast<int>(ys.size());
    for (double v : ys) y_mean += v;
    y_mean /= n;
    double var = 0.0;
    for (double v : ys) var += (v - y_mean) * (v - y_mean);
    y_std = n > 1 ? std::sqrt(var / (n - 1)) : 1.0;
    if (y_std < 1e-12) y_std = 1.0;
    for (double v : ys) y.push_back((v - y_mean) / y_std);
    std::vector<double> dists;
    const int cap = std::min(n, 64);
    for (int i = 0; i < cap; ++i) {
      for (int j = i + 1; j < cap; ++j) {
        dists.push_back(std::sqrt(sq_dist(x[i], x[j])));
      }
    }
    double ls0 = 1.0;
    if (!dists.empty()) {
      std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                       dists.end());
      ls0 = std::max(dists[dists.size() / 2], 1e-3);
    }
    double best_ll = -std::numeric_limits<double>::infinity();
    double best_ls = ls0, best_noise = 1e-4;
    for (double ls_mul : {0.33, 0.66, 1.0, 2.0, 4.0}) {
      for (double nz : {1e-6, 1e-4, 1e-2}) {
        double ll = -std::numeric_limits<double>::infinity();
        try {
          const auto lk = gcnrl::testing::reference_cholesky(
              kernel_matrix(ls0 * ls_mul, nz));
          const auto a = gcnrl::testing::reference_solve_upper(
              lk, gcnrl::testing::reference_solve_lower(lk, y));
          double fit = 0.0;
          for (int i = 0; i < n; ++i) fit += y[i] * a[i];
          double log_det = 0.0;
          for (int i = 0; i < n; ++i) log_det += std::log(lk(i, i));
          ll = -0.5 * fit - 0.5 * (2.0 * log_det) -
               0.5 * n * std::log(2.0 * M_PI);
        } catch (const gcnrl::la::NotPositiveDefiniteError&) {
        }
        if (ll > best_ll) {
          best_ll = ll;
          best_ls = ls0 * ls_mul;
          best_noise = nz;
        }
      }
    }
    factor_at(best_ls, best_noise);
  }

  opt::GpPrediction predict(const std::vector<double>& q) const {
    const int n = static_cast<int>(x.size());
    std::vector<double> kx(n);
    for (int i = 0; i < n; ++i) kx[i] = kernel(x[i], q, ls);
    double mu = 0.0;
    for (int i = 0; i < n; ++i) mu += kx[i] * alpha[i];
    const auto v = gcnrl::testing::reference_solve_lower(l, kx);
    double reduction = 0.0;
    for (double vi : v) reduction += vi * vi;
    const double var = std::max(kernel(q, q, ls) - reduction, 1e-12);
    return {y_mean + y_std * mu, y_std * y_std * var};
  }
};

// n points in [-1, 1]^23 (BO's dimension on Two-TIA) on a smooth
// objective.
void gp_data(int n, Rng& rng, std::vector<std::vector<double>>& xs,
             std::vector<double>& ys) {
  xs.assign(static_cast<std::size_t>(n), std::vector<double>(23));
  ys.clear();
  for (auto& x : xs) {
    double f = 0.0;
    for (std::size_t d = 0; d < x.size(); ++d) {
      x[d] = rng.uniform(-1.0, 1.0);
      f += std::sin(2.0 * x[d] + 0.1 * static_cast<double>(d));
    }
    ys.push_back(f);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

TEST(Gp, FitKeepsTheReferenceWinnerAndItsFactor) {
  // The factor fit() keeps from its grid search must be the one a fresh
  // factorization at (lengthscale(), noise()) gives, and the winner must
  // be the per-grid-point reference's.
  Rng rng(40);
  for (const int n : {1, 2, 37, 100}) {
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    gp_data(n, rng, xs, ys);
    opt::GaussianProcess gp;
    gp.fit(xs, ys);
    const ReferenceGp ref(xs, ys);
    EXPECT_TRUE(same_bits(gp.lengthscale(), ref.ls)) << "n=" << n;
    EXPECT_TRUE(same_bits(gp.noise(), ref.noise)) << "n=" << n;
    const gcnrl::la::Mat& l = gp.factor().lower();
    ASSERT_EQ(l.rows(), n);
    EXPECT_EQ(std::memcmp(l.data(), ref.l.data(), l.size() * sizeof(double)),
              0)
        << "n=" << n;
  }
}

TEST(Gp, PredictBatchMatchesPerPointReferenceBitwise) {
  // m = 33 is one more than predict_batch's 32-point tile.
  Rng rng(41);
  for (const int n : {1, 2, 37, 100}) {
    std::vector<std::vector<double>> xs;
    std::vector<double> ys;
    gp_data(n, rng, xs, ys);
    opt::GaussianProcess gp;
    gp.fit(xs, ys);
    const ReferenceGp ref(xs, ys);
    for (const int m : {1, 7, 33, 512}) {
      std::vector<std::vector<double>> qs;
      std::vector<double> unused;
      gp_data(m, rng, qs, unused);
      qs.front() = xs.front();  // a training point: variance at its floor
      const auto batch = gp.predict_batch(qs);
      ASSERT_EQ(static_cast<int>(batch.size()), m);
      for (int c = 0; c < m; ++c) {
        const opt::GpPrediction want = ref.predict(qs[c]);
        const opt::GpPrediction one = gp.predict(qs[c]);
        ASSERT_TRUE(same_bits(batch[c].mean, want.mean) &&
                    same_bits(batch[c].variance, want.variance))
            << "n=" << n << " m=" << m << " point " << c;
        ASSERT_TRUE(same_bits(one.mean, want.mean) &&
                    same_bits(one.variance, want.variance))
            << "n=" << n << " point " << c;
      }
    }
  }
}

TEST(Gp, PredictBatchOfNothingIsEmpty) {
  opt::GaussianProcess gp;
  gp.fit({{0.0}, {1.0}}, {0.0, 1.0});
  EXPECT_TRUE(gp.predict_batch({}).empty());
  EXPECT_THROW((void)opt::GaussianProcess{}.predict_batch({{0.0}}),
               std::runtime_error);
}

TEST(BayesOpt, BeatsRandomOnMultimodal1d) {
  // f(x) = sin(5x) * (1 - x^2): several local optima in [-1, 1].
  auto f = [](const std::vector<double>& x) {
    return std::sin(5.0 * x[0]) * (1.0 - x[0] * x[0]);
  };
  opt::BayesOptOptions bopt;
  bopt.initial_random = 6;
  opt::BayesOpt bo(1, Rng(9), bopt);
  const double best_bo = run_loop(bo, 40, f);
  opt::RandomSearch rs(1, Rng(9));
  const double best_rs = run_loop(rs, 40, f);
  EXPECT_GE(best_bo, best_rs - 0.02);
  EXPECT_GT(best_bo, 0.75);  // global max ~ 0.78 near x ~ 0.28
}

TEST(BayesOpt, GpSubsetWithinCapKeepsEveryPoint) {
  const auto keep = opt::gp_training_subset({3.0, 1.0, 2.0}, 5);
  EXPECT_EQ(keep, (std::vector<int>{0, 1, 2}));
}

TEST(BayesOpt, GpSubsetAlwaysAdmitsTheNewestPoint) {
  // Regression: the capped GP training set used to keep only the top-N by
  // objective, so a badly scoring newest point never entered the surrogate
  // and the GP stayed blind to the region it just probed. The subset must
  // be the best (max - 1) points plus the newest, even when the newest is
  // the worst sample seen so far.
  const std::vector<double> ys = {5.0, 4.0, 3.0, 2.0, -10.0};
  const auto keep = opt::gp_training_subset(ys, 3);
  ASSERT_EQ(keep.size(), 3u);
  // Best two by objective...
  EXPECT_NE(std::find(keep.begin(), keep.end(), 0), keep.end());
  EXPECT_NE(std::find(keep.begin(), keep.end(), 1), keep.end());
  // ...plus the newest (worst) point, which the old best-N rule dropped.
  EXPECT_EQ(keep.back(), 4);
}

TEST(BayesOpt, GpSubsetDoesNotDuplicateANewestBestPoint) {
  // Newest point is also the best: it must appear exactly once and the
  // remaining slots go to the next-best points.
  const std::vector<double> ys = {1.0, 2.0, 9.0};
  const auto keep = opt::gp_training_subset(ys, 2);
  ASSERT_EQ(keep.size(), 2u);
  EXPECT_EQ(std::count(keep.begin(), keep.end(), 2), 1);
  EXPECT_NE(std::find(keep.begin(), keep.end(), 1), keep.end());
}

TEST(BayesOpt, ExpectedImprovementNonNegative) {
  opt::BayesOptOptions bopt;
  bopt.initial_random = 3;
  opt::BayesOpt bo(2, Rng(10), bopt);
  std::vector<std::vector<double>> xs = {{0.0, 0.0}, {0.5, 0.5}, {-0.5, 0.2}};
  bo.tell(xs, {0.1, 0.3, -0.2});
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_GE(bo.expected_improvement(
                  {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)}),
              0.0);
  }
}

TEST(Mace, ProposesRequestedBatch) {
  opt::MaceOptions mopt;
  mopt.initial_random = 4;
  mopt.batch = 3;
  opt::Mace mace(3, Rng(12), mopt);
  // Warm-up asks.
  auto xs = mace.ask();
  std::vector<double> ys(xs.size(), 0.0);
  mace.tell(xs, ys);
  xs = mace.ask();
  std::vector<double> ys2;
  for (const auto& x : xs) ys2.push_back(-x[0] * x[0]);
  mace.tell(xs, ys2);
  const auto batch = mace.ask();
  EXPECT_EQ(static_cast<int>(batch.size()), 3);
  for (const auto& x : batch) {
    for (double v : x) {
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(Mace, CappedGpAlwaysAdmitsTheNewestPoint) {
  // Regression: past max_gp_points, Mace::tell used to fit the top-N points
  // by objective, so a badly scoring newest point never entered the
  // surrogate. It now uses gp_training_subset, like BayesOpt: the capped
  // instance must ask exactly what an instance told only that subset (in
  // subset order) asks. Same seed, and neither instance has drawn from its
  // rng yet, so only the fitted GP can differ.
  opt::MaceOptions mopt;
  mopt.initial_random = 2;
  mopt.batch = 2;
  mopt.max_gp_points = 3;
  const std::vector<std::vector<double>> xs = {
      {0.1, 0.2}, {-0.4, 0.5}, {0.7, -0.3}, {-0.9, -0.8}};
  const std::vector<double> ys = {5.0, 4.0, 3.0, -10.0};  // newest worst
  opt::Mace capped(2, Rng(14), mopt);
  capped.tell(xs, ys);
  const auto keep = opt::gp_training_subset(ys, mopt.max_gp_points);
  ASSERT_EQ(keep, (std::vector<int>{0, 1, 3}));
  opt::Mace subset(2, Rng(14), mopt);
  subset.tell({xs[0], xs[1], xs[3]}, {ys[0], ys[1], ys[3]});
  EXPECT_EQ(capped.ask(), subset.ask());
}

TEST(Mace, OptimizesQuadratic) {
  std::vector<double> target = {0.3, -0.4};
  opt::MaceOptions mopt;
  mopt.initial_random = 8;
  opt::Mace mace(2, Rng(13), mopt);
  const double best = run_loop(mace, 60, [&](const std::vector<double>& x) {
    return neg_sphere(x, target);
  });
  EXPECT_GT(best, -0.05);
}

namespace {

// Drive two instances of one optimizer through the identical ask/tell
// transcript (a deterministic synthetic objective) and require identical
// proposals throughout. This is the property the lockstep sweep driver
// rests on: an optimizer's stream is a pure function of its seed and its
// observations, so stepping S seeds side by side cannot perturb any of
// them.
void expect_replay_determinism(opt::Optimizer& a, opt::Optimizer& b,
                               int rounds) {
  auto f = [](const std::vector<double>& x) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      acc -= (x[i] - 0.1 * static_cast<double>(i + 1)) *
             (x[i] - 0.1 * static_cast<double>(i + 1));
    }
    return acc;
  };
  for (int r = 0; r < rounds; ++r) {
    const auto xa = a.ask();
    const auto xb = b.ask();
    ASSERT_EQ(xa.size(), xb.size()) << "round " << r;
    std::vector<double> ys;
    for (std::size_t i = 0; i < xa.size(); ++i) {
      ASSERT_EQ(xa[i], xb[i]) << "round " << r << " point " << i;
      ys.push_back(f(xa[i]));
    }
    a.tell(xa, ys);
    b.tell(xb, ys);
  }
}

}  // namespace

TEST(BayesOpt, IdenticallySeededInstancesReplayIdentically) {
  opt::BayesOptOptions bopt;
  bopt.initial_random = 4;
  opt::BayesOpt a(3, Rng(21), bopt);
  opt::BayesOpt b(3, Rng(21), bopt);
  expect_replay_determinism(a, b, 12);
}

TEST(Mace, IdenticallySeededInstancesReplayIdentically) {
  opt::MaceOptions mopt;
  mopt.initial_random = 4;
  mopt.batch = 3;
  opt::Mace a(3, Rng(22), mopt);
  opt::Mace b(3, Rng(22), mopt);
  expect_replay_determinism(a, b, 10);
}

TEST(CmaEs, IdenticallySeededInstancesReplayIdentically) {
  opt::CmaEs a(4, Rng(23));
  opt::CmaEs b(4, Rng(23));
  expect_replay_determinism(a, b, 15);
}

TEST(NormalHelpers, PdfCdfSanity) {
  EXPECT_NEAR(opt::norm_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(opt::norm_cdf(10.0), 1.0, 1e-9);
  EXPECT_NEAR(opt::norm_cdf(-10.0), 0.0, 1e-9);
  EXPECT_NEAR(opt::norm_pdf(0.0), 1.0 / std::sqrt(2.0 * M_PI), 1e-12);
}

namespace {

// Golden ask/tell transcripts: BO and MACE on a 23-D synthetic objective
// (the Two-TIA action dimension), 60 evaluations per seed. `asks` hashes
// the bits of every asked coordinate in ask order; it moves only when a
// GP change flips an acquisition decision. `gp` hashes a GP fitted to the
// whole transcript (lengthscale, noise, and mean/variance at 64 fixed
// points), so it moves with any bit of the fit or the predictions
// (distance sums, kernel, Cholesky, solves, the hyperparameter grid).
constexpr int kGoldenDim = 23;
constexpr int kGoldenEvals = 60;

double golden_objective(const std::vector<double>& x) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double t = 0.04 * (static_cast<double>(i) - 11.0);
    const double d = x[i] - t;
    acc -= d * d - 0.05 * std::cos(6.0 * x[i]);
  }
  return acc;
}

using gcnrl::testing::bits_of;
using gcnrl::testing::Fnv1a;

struct GoldenTrace {
  std::uint64_t asks = 0;
  std::uint64_t gp = 0;        // through predict()
  std::uint64_t gp_batch = 0;  // the same, through predict_batch()
  double best = -1e300;
};

GoldenTrace golden_trace(opt::Optimizer& o) {
  GoldenTrace t;
  Fnv1a asks;
  std::vector<std::vector<double>> seen;
  std::vector<double> values;
  while (static_cast<int>(seen.size()) < kGoldenEvals) {
    const auto xs = o.ask();
    std::vector<double> ys;
    for (const auto& x : xs) {
      for (const double v : x) asks.add(v);
      ys.push_back(golden_objective(x));
      t.best = std::max(t.best, ys.back());
      seen.push_back(x);
      values.push_back(ys.back());
      if (static_cast<int>(seen.size()) >= kGoldenEvals) break;
    }
    o.tell({xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(ys.size())},
           ys);
  }
  t.asks = asks.h;
  opt::GaussianProcess gp;
  gp.fit(seen, values);
  Rng rng(99);
  std::vector<std::vector<double>> probes(64,
                                          std::vector<double>(kGoldenDim));
  for (auto& x : probes) {
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  }
  Fnv1a one, batch;
  for (Fnv1a* f : {&one, &batch}) {
    f->add(gp.lengthscale());
    f->add(gp.noise());
  }
  for (const auto& x : probes) {
    const opt::GpPrediction p = gp.predict(x);
    one.add(p.mean);
    one.add(p.variance);
  }
  for (const opt::GpPrediction& p : gp.predict_batch(probes)) {
    batch.add(p.mean);
    batch.add(p.variance);
  }
  t.gp = one.h;
  t.gp_batch = batch.h;
  return t;
}

void expect_golden(const GoldenTrace& t, int seed, std::uint64_t asks,
                   std::uint64_t gp, std::uint64_t best) {
  EXPECT_EQ(t.asks, asks) << "seed " << seed << std::hex << " asks 0x"
                          << t.asks;
  EXPECT_EQ(t.gp, gp) << "seed " << seed << std::hex << " gp 0x" << t.gp;
  EXPECT_EQ(t.gp_batch, gp) << "seed " << seed << std::hex
                            << " gp_batch 0x" << t.gp_batch;
  EXPECT_EQ(bits_of(t.best), best)
      << "seed " << seed << std::hex << " best bits 0x" << bits_of(t.best)
      << std::hexfloat << " (" << t.best << ")";
}

}  // namespace

// Captured from the build before the GP layer was restructured
// (left-looking Cholesky, per-point predictions, 16 factorizations per
// fit). Per seed: asks hash, gp hash, bits of the best value.
TEST(BayesOpt, GoldenTranscript23d) {
  const std::uint64_t kGolden[2][3] = {
      {0xa1c56a8c28d2f572ULL, 0x7486ec935de8cd7dULL,
       0xc001557a8ac3ce95ULL},  // best -2.1667
      {0x58dfe14a6cf4c369ULL, 0xa4104d275f48e021ULL,
       0xbffea6515dcd7158ULL}};  // best -1.9156
  for (int s = 0; s < 2; ++s) {
    opt::BayesOpt bo(kGoldenDim, Rng(static_cast<std::uint64_t>(s + 1)));
    expect_golden(golden_trace(bo), s + 1, kGolden[s][0], kGolden[s][1],
                  kGolden[s][2]);
  }
}

TEST(Mace, GoldenTranscript23d) {
  const std::uint64_t kGolden[2][3] = {
      {0xb300e92076bd5c93ULL, 0xb58f1b0ad8e44954ULL,
       0xc000eecbdb28bb3bULL},  // best -2.1166
      {0x1a4239e450e9cc25ULL, 0x8fe38df07b9301baULL,
       0xc003fbe9014e3a4eULL}};  // best -2.4980
  for (int s = 0; s < 2; ++s) {
    opt::Mace mace(kGoldenDim, Rng(static_cast<std::uint64_t>(s + 1)));
    expect_golden(golden_trace(mace), s + 1, kGolden[s][0], kGolden[s][1],
                  kGolden[s][2]);
  }
}
