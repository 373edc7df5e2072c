// google-benchmark microbenchmarks for the learner substrate: GCN
// forward/backward and one full DDPG update at the agent's real sizes,
// plus the BO/MACE Gaussian-process fit and predictions.
#include <benchmark/benchmark.h>

#include <vector>

#include "circuits/benchmark_circuits.hpp"
#include "env/sizing_env.hpp"
#include "opt/gp.hpp"
#include "rl/ddpg.hpp"

using namespace gcnrl;

namespace {

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  la::Mat a(n, n), b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1, 1);
      b(i, j) = rng.uniform(-1, 1);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::matmul(a, b).data());
  }
  state.SetItemsProcessed(state.iterations() * 2l * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

void BM_ActorForward(benchmark::State& state) {
  const auto tech = circuit::make_technology("180nm");
  env::SizingEnv env(circuits::make_three_tia(tech));
  rl::DdpgConfig cfg;
  Rng rng(2);
  rl::DdpgAgent agent(env.state(), env.adjacency(), env.kinds(), cfg, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act().data());
  }
}
BENCHMARK(BM_ActorForward);

void BM_DdpgEpisodeWithUpdates(benchmark::State& state) {
  const auto tech = circuit::make_technology("180nm");
  env::SizingEnv env(circuits::make_three_tia(tech));
  rl::DdpgConfig cfg;
  cfg.warmup = 4;  // go straight to the update path
  Rng rng(3);
  rl::DdpgAgent agent(env.state(), env.adjacency(), env.kinds(), cfg, rng);
  Rng reward_rng(4);
  for (int i = 0; i < 8; ++i) {
    agent.observe(agent.act_explore(), reward_rng.uniform(-1.0, 1.0));
  }
  for (auto _ : state) {
    agent.observe(agent.act_explore(), reward_rng.uniform(-1.0, 1.0));
  }
}
BENCHMARK(BM_DdpgEpisodeWithUpdates);

// Gaussian process at BO/MACE's sizes: D = 23 (the Two-TIA action
// dimension), n = state.range(0) training points, 512 query points (BayesOpt::acq_samples, MaceOptions::pool).
constexpr int kGpDim = 23;
constexpr int kGpQueries = 512;

std::vector<std::vector<double>> gp_points(int count, Rng& rng) {
  std::vector<std::vector<double>> xs(count, std::vector<double>(kGpDim));
  for (auto& x : xs) {
    for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  }
  return xs;
}

// n training points and their values on a smooth objective.
struct GpData {
  std::vector<std::vector<double>> xs;
  std::vector<double> ys;
};

GpData gp_data(int n) {
  Rng rng(5);
  GpData data{gp_points(n, rng), {}};
  for (const auto& x : data.xs) {
    double acc = 0.0;
    for (const double v : x) acc -= (v - 0.2) * (v - 0.2);
    data.ys.push_back(acc);
  }
  return data;
}

opt::GaussianProcess fitted_gp(int n) {
  const GpData data = gp_data(n);
  opt::GaussianProcess gp;
  gp.fit(data.xs, data.ys);
  return gp;
}

// One fit: pairwise distances, the 15-point lengthscale/noise grid (one
// Cholesky factorization each) and the kept winning factor.
void BM_GpFit(benchmark::State& state) {
  const GpData data = gp_data(static_cast<int>(state.range(0)));
  opt::GaussianProcess gp;
  for (auto _ : state) {
    gp.fit(data.xs, data.ys);
    benchmark::DoNotOptimize(gp.lengthscale());
  }
}
BENCHMARK(BM_GpFit)->Arg(30)->Arg(60)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

// The acquisition pool's predictions in one batch.
void BM_GpPredictBatch(benchmark::State& state) {
  const opt::GaussianProcess gp = fitted_gp(static_cast<int>(state.range(0)));
  Rng rng(6);
  const auto queries = gp_points(kGpQueries, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict_batch(queries).data());
  }
  state.SetItemsProcessed(state.iterations() * kGpQueries);
}
BENCHMARK(BM_GpPredictBatch)->Arg(30)->Arg(60)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

// One point at a time, as BayesOpt's local refinement asks.
void BM_GpPredict(benchmark::State& state) {
  const opt::GaussianProcess gp = fitted_gp(static_cast<int>(state.range(0)));
  Rng rng(6);
  const auto query = gp_points(1, rng).front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict(query).variance);
  }
}
BENCHMARK(BM_GpPredict)->Arg(30)->Arg(60)->Arg(100)
    ->Unit(benchmark::kMicrosecond);

}  // namespace
