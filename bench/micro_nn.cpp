// google-benchmark microbenchmarks for the learner substrate: the matmul
// kernel, GCN forward/backward and one full DDPG update at the agent's
// real sizes, plus the BO/MACE Gaussian-process fit and predictions.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "circuits/benchmark_circuits.hpp"
#include "env/sizing_env.hpp"
#include "opt/gp.hpp"
#include "rl/ddpg.hpp"

using namespace gcnrl;

namespace {

// C = A·B, Aᵀ·B or A·Bᵀ for C of shape n x m with inner dimension k,
// (n, k, m) = the row's arguments. Half of A's entries are zero, as in
// the ReLU'd activations and gradients the learner multiplies. The
// learner's products: H·W and G·Wᵀ at 9 x 32 x 32, Hᵀ·G at 32 x 9 x 32.
// BM_Matmul runs the kernel version the library picked for this host,
// BM_MatmulBaseline the baseline version; each row's label names it.
enum class MatmulForm { kNN, kTN, kNT };

// The product through `run`, as la::matmul / matmul_tn / matmul_nt make
// it (matmul_nt transposes B first).
la::Mat product(MatmulForm form, const la::Mat& a, const la::Mat& b,
                la::MatmulKernelFn run) {
  if (form == MatmulForm::kNT) {
    return product(MatmulForm::kNN, a, b.transpose(), run);
  }
  const bool tn = form == MatmulForm::kTN;
  la::Mat c(tn ? a.cols() : a.rows(), b.cols());
  run(c.rows(), b.rows(), c.cols(), a.data(), tn ? 1 : a.cols(),
      tn ? a.cols() : 1, b.data(), b.cols(), c.data(), c.cols(), false);
  return c;
}

void time_matmul(benchmark::State& state, MatmulForm form,
                 la::MatmulKernelFn run, const char* version) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int m = static_cast<int>(state.range(2));
  Rng rng(1);
  la::Mat a = form == MatmulForm::kTN ? la::Mat(k, n) : la::Mat(n, k);
  la::Mat b = form == MatmulForm::kNT ? la::Mat(m, k) : la::Mat(k, m);
  for (std::size_t e = 0; e < a.size(); ++e) {
    if (rng.uniform(0, 1) < 0.5) a.data()[e] = rng.uniform(-1, 1);
  }
  for (std::size_t e = 0; e < b.size(); ++e) b.data()[e] = rng.uniform(-1, 1);
  for (auto _ : state) {
    const la::Mat c = product(form, a, b, run);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2l * n * k * m);
  state.SetLabel(version);
}

void BM_Matmul(benchmark::State& state, MatmulForm form) {
  time_matmul(state, form, la::matmul_kernel, la::matmul_kernel_name());
}
BENCHMARK_CAPTURE(BM_Matmul, nn, MatmulForm::kNN)
    ->Args({9, 32, 32})->Args({32, 32, 32})->Args({64, 64, 64})
    ->Args({128, 128, 128});
BENCHMARK_CAPTURE(BM_Matmul, tn, MatmulForm::kTN)->Args({32, 9, 32});
BENCHMARK_CAPTURE(BM_Matmul, nt, MatmulForm::kNT)->Args({9, 32, 32});

void BM_MatmulBaseline(benchmark::State& state, MatmulForm form) {
  const la::MatmulKernelVersion& v = la::matmul_kernel_versions().front();
  time_matmul(state, form, v.run, v.name);
}
BENCHMARK_CAPTURE(BM_MatmulBaseline, nn, MatmulForm::kNN)->Args({9, 32, 32});
BENCHMARK_CAPTURE(BM_MatmulBaseline, tn, MatmulForm::kTN)->Args({32, 9, 32});
BENCHMARK_CAPTURE(BM_MatmulBaseline, nt, MatmulForm::kNT)->Args({9, 32, 32});

// One critic step of Algorithm 1 at the agent's real sizes: Two-TIA
// (9 components), hidden 32, 7 GCN layers, a 32-transition batch streamed
// through one arena tape.
void BM_CriticBackward_TwoTia(benchmark::State& state) {
  const auto tech = circuit::make_technology("180nm");
  const env::SizingEnv env(circuits::make_two_tia(tech));
  rl::NetworkConfig nc;
  nc.state_dim = env.state_dim();
  Rng rng(7);
  rl::GcnCritic critic(nc, rng);
  const auto masks = rl::make_type_masks(env.kinds(), nc.hidden);
  const la::Mat a_hat = nn::normalized_adjacency(env.adjacency());
  std::vector<rl::Transition> pool(32);
  for (rl::Transition& t : pool) {
    t.actions = la::Mat(env.n(), circuit::kMaxActionDim);
    for (std::size_t e = 0; e < t.actions.size(); ++e) {
      t.actions.data()[e] = rng.uniform(-1.0, 1.0);
    }
    t.reward = rng.uniform(-1.0, 1.0);
  }
  std::vector<const rl::Transition*> batch;
  for (const rl::Transition& t : pool) batch.push_back(&t);
  for (auto _ : state) {
    critic.zero_grad();
    rl::critic_backward(critic, env.state(), a_hat, masks, batch, 0.1);
    benchmark::DoNotOptimize(critic.parameters().front()->grad.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_CriticBackward_TwoTia)->Unit(benchmark::kMicrosecond);

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
