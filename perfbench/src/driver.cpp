#include "driver.hpp"

#include <algorithm>
#include <cctype>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "circuit/tech.hpp"
#include "env/eval_service.hpp"
#include "la/stats.hpp"

namespace perfbench {
namespace api = gcnrl::api;
namespace env = gcnrl::env;
namespace rl = gcnrl::rl;
namespace sim = gcnrl::sim;
using gcnrl::Rng;

namespace {

// The run loops' simulated-cost rule: a design costs one simulation the
// first time the run evaluates it, nothing on a repeat.
class Ledger {
 public:
  long charge(const gcnrl::circuit::DesignSpace& space,
              const gcnrl::circuit::DesignParams& params) {
    return seen_.insert(env::design_key(space, params)).second ? 1 : 0;
  }

 private:
  std::unordered_set<env::EvalCache::Key, env::EvalCache::KeyHash,
                     env::EvalCache::KeyEqual>
      seen_;
};

struct Snapshot {
  sim::SimPerf sim;
  ServiceCounts svc;
};

Snapshot snapshot(const env::EvalService& svc) {
  return {sim::sim_perf_snapshot(),
          {svc.requested(), svc.sims(), svc.cache_hits()}};
}

sim::AnalysisPerf minus(const sim::AnalysisPerf& a,
                        const sim::AnalysisPerf& b) {
  sim::AnalysisPerf d;
  d.calls = a.calls - b.calls;
  d.items = a.items - b.items;
  d.warm_hits = a.warm_hits - b.warm_hits;
  d.warm_fallbacks = a.warm_fallbacks - b.warm_fallbacks;
  d.sparse_fallbacks = a.sparse_fallbacks - b.sparse_fallbacks;
  d.seconds = a.seconds - b.seconds;
  d.phase.assembly = a.phase.assembly - b.phase.assembly;
  d.phase.factor = a.phase.factor - b.phase.factor;
  d.phase.solve = a.phase.solve - b.phase.solve;
  return d;
}

PhaseCounts between(const Snapshot& from, const Snapshot& to) {
  PhaseCounts d;
  d.sim.dc = minus(to.sim.dc, from.sim.dc);
  d.sim.ac = minus(to.sim.ac, from.sim.ac);
  d.sim.noise = minus(to.sim.noise, from.sim.noise);
  d.sim.tran = minus(to.sim.tran, from.sim.tran);
  d.svc.requested = to.svc.requested - from.svc.requested;
  d.svc.sims = to.svc.sims - from.svc.sims;
  d.svc.cache_hits = to.svc.cache_hits - from.svc.cache_hits;
  return d;
}

std::uint64_t task_seed(const api::TaskSpec& t, int s) {
  if (t.seed_base) {
    return *t.seed_base + t.seed_stride * static_cast<std::uint64_t>(s);
  }
  return api::seed_of(s);
}

std::string lower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

// run_tasks' calibration-sharing key: one factory per distinct tuple.
std::string factory_key(const api::TaskSpec& t, const api::RunOptions& opts) {
  return t.circuit + "\n" + t.node + "\n" +
         (t.index_mode.value_or(opts.mode) == env::IndexMode::OneHot
              ? "one_hot"
              : "scalar") +
         "\n" + t.calib_group;
}

const api::EnvFactory* factory_of(const Factories& factories,
                                  const api::TaskSpec& t,
                                  const api::RunOptions& opts) {
  const std::string key = factory_key(t, opts);
  for (const auto& [k, f] : factories) {
    if (k == key) return f.get();
  }
  return nullptr;
}

// One task of a level, resolved.
struct Plan {
  const api::TaskSpec* spec = nullptr;
  const api::MethodInfo* mi = nullptr;
  const api::EnvFactory* factory = nullptr;
  std::vector<long> budgets;  // per-seed sim caps; empty = uncapped
  std::vector<rl::RunResult>* out = nullptr;
};

// Traced copy of api::run_tasks' per-level engine and of the lockstep
// loops in rl/run_loop.cpp.
class LevelRunner {
 public:
  LevelRunner(Tracer& t, std::shared_ptr<env::EvalService> svc,
              TracedResult& acc)
      : t_(t), svc_(std::move(svc)), acc_(acc) {
    make_env_ = t.name_id("env.make");
    agent_init_ = t.name_id("rl.agent_init");
    opt_init_ = t.name_id("opt.init");
    act_ = t.name_id("rl.act");
    observe_warm_ = t.name_id("rl.observe.warm");
    observe_learn_ = t.name_id("rl.observe.learn");
    eval_batch_ = t.name_id("env.eval_batch");
    commit_ = t.name_id("run.commit");
    random_actions_ = t.name_id("random.actions");
  }

  void run(std::vector<Plan>& plans);

 private:
  struct AskTellPair {
    std::unique_ptr<env::SizingEnv> env;
    std::unique_ptr<gcnrl::opt::Optimizer> opt;
    int steps = 0;
    long max_sims = -1;
    int ask = 0;  // span names
    int tell = 0;
    rl::RunResult* out = nullptr;
  };

  std::unique_ptr<env::SizingEnv> make_env(const api::EnvFactory& f) {
    Tracer::Scope s(t_, make_env_);
    return f.make(svc_);
  }
  void count(const env::EvalResult& r) {
    ++acc_.evals;
    if (!r.sim_ok) ++acc_.failed_evals;
  }
  void run_random(env::SizingEnv& e, int steps, Rng rng, rl::RunResult& out);
  void run_ddpg(std::vector<std::unique_ptr<env::SizingEnv>>& envs,
                std::vector<std::unique_ptr<rl::DdpgAgent>>& agents,
                const std::vector<int>& steps,
                const std::vector<rl::RunResult*>& out);
  void run_ask_tell(std::vector<AskTellPair>& pairs);

  Tracer& t_;
  std::shared_ptr<env::EvalService> svc_;
  TracedResult& acc_;
  int make_env_, agent_init_, opt_init_, act_, observe_warm_, observe_learn_,
      eval_batch_, commit_, random_actions_;
};

void LevelRunner::run(std::vector<Plan>& plans) {
  std::vector<std::unique_ptr<env::SizingEnv>> rl_envs;
  std::vector<std::unique_ptr<rl::DdpgAgent>> rl_agents;
  std::vector<int> rl_steps;
  std::vector<rl::RunResult*> rl_out;
  std::vector<AskTellPair> bb;

  for (Plan& plan : plans) {
    const api::TaskSpec& t = *plan.spec;
    plan.out->resize(static_cast<std::size_t>(t.seeds));
    for (int s = 0; s < t.seeds; ++s) {
      rl::RunResult& out = (*plan.out)[static_cast<std::size_t>(s)];
      switch (plan.mi->kind) {
        case api::MethodKind::Ddpg: {
          rl_envs.push_back(make_env(*plan.factory));
          rl::DdpgConfig cfg = t.ddpg;
          if (plan.mi->configure) plan.mi->configure(cfg);
          cfg.warmup = t.warmup;
          Tracer::Scope span(t_, agent_init_);
          rl_agents.push_back(std::make_unique<rl::DdpgAgent>(
              rl_envs.back()->state(), rl_envs.back()->adjacency(),
              rl_envs.back()->kinds(), cfg, Rng(task_seed(t, s))));
          rl_steps.push_back(t.steps);
          rl_out.push_back(&out);
          break;
        }
        case api::MethodKind::AskTell: {
          AskTellPair p;
          p.env = make_env(*plan.factory);
          {
            Tracer::Scope span(t_, opt_init_);
            p.opt = api::make_ask_tell(t.method, p.env->flat_dim(),
                                       Rng(task_seed(t, s)));
          }
          const long max_sims =
              plan.budgets.empty() ? -1
                                   : plan.budgets[static_cast<std::size_t>(s)];
          p.steps = t.steps;
          p.max_sims = max_sims > 0 ? max_sims : -1;
          p.ask = t_.name_id("opt." + lower(t.method) + ".ask");
          p.tell = t_.name_id("opt." + lower(t.method) + ".tell");
          p.out = &out;
          bb.push_back(std::move(p));
          break;
        }
        case api::MethodKind::Random: {
          auto e = make_env(*plan.factory);
          run_random(*e, t.steps, Rng(task_seed(t, s)), out);
          break;
        }
        case api::MethodKind::Anchor:
          throw std::invalid_argument("traced driver: Anchor tasks unsupported");
      }
    }
  }
  if (!rl_envs.empty()) run_ddpg(rl_envs, rl_agents, rl_steps, rl_out);
  if (!bb.empty()) run_ask_tell(bb);
}

void LevelRunner::run_random(env::SizingEnv& e, int steps, Rng rng,
                             rl::RunResult& out) {
  Ledger ledger;
  constexpr int kChunk = 64;  // rl::run_random's fixed chunk size
  int done = 0;
  while (done < steps) {
    const int m = std::min(kChunk, steps - done);
    std::vector<gcnrl::la::Mat> actions;
    actions.reserve(static_cast<std::size_t>(m));
    {
      Tracer::Scope span(t_, random_actions_);
      for (int i = 0; i < m; ++i) actions.push_back(e.random_actions(rng));
    }
    std::vector<env::EvalResult> results;
    {
      Tracer::Scope span(t_, eval_batch_);
      results = e.step_batch(actions);
    }
    Tracer::Scope span(t_, commit_);
    for (int i = 0; i < m; ++i) {
      const auto k = static_cast<std::size_t>(i);
      out.sims += ledger.charge(e.bench().space, results[k].params);
      out.commit(actions[k], results[k]);
      count(results[k]);
    }
    done += m;
  }
}

void LevelRunner::run_ddpg(std::vector<std::unique_ptr<env::SizingEnv>>& envs,
                           std::vector<std::unique_ptr<rl::DdpgAgent>>& agents,
                           const std::vector<int>& steps,
                           const std::vector<rl::RunResult*>& out) {
  const int max_steps = *std::max_element(steps.begin(), steps.end());
  std::vector<gcnrl::la::Mat> actions(envs.size());
  std::vector<Ledger> ledgers(envs.size());
  std::vector<env::EvalJob> jobs;
  std::vector<std::size_t> active;
  for (int step = 0; step < max_steps; ++step) {
    jobs.clear();
    active.clear();
    for (std::size_t k = 0; k < envs.size(); ++k) {
      if (steps[k] <= step) continue;
      {
        Tracer::Scope span(t_, act_);
        actions[k] = agents[k]->act_explore();
      }
      jobs.push_back(
          env::EvalJob{&envs[k]->bench(), &actions[k], envs[k]->eval_attr()});
      active.push_back(k);
    }
    std::vector<env::EvalResult> results;
    {
      Tracer::Scope span(t_, eval_batch_);
      results = svc_->eval_batch_multi(jobs);
    }
    for (std::size_t j = 0; j < active.size(); ++j) {
      const std::size_t k = active[j];
      rl::DdpgAgent& agent = *agents[k];
      const bool learn = agent.episode() + 1 > agent.config().warmup;
      {
        Tracer::Scope span(t_, learn ? observe_learn_ : observe_warm_);
        agent.observe(actions[k], results[j].fom);
      }
      if (learn) acc_.updates += agent.config().updates_per_step;
      Tracer::Scope span(t_, commit_);
      out[k]->sims += ledgers[k].charge(envs[k]->bench().space,
                                        results[j].params);
      out[k]->commit(actions[k], results[j]);
      count(results[j]);
    }
  }
}

void LevelRunner::run_ask_tell(std::vector<AskTellPair>& pairs) {
  struct State {
    Ledger ledger;
    std::vector<std::vector<double>> xs;
    std::vector<gcnrl::la::Mat> mats;
    bool done = false;
  };
  std::vector<State> state(pairs.size());
  std::vector<env::EvalJob> jobs;
  std::vector<std::size_t> asked;
  for (;;) {
    jobs.clear();
    asked.clear();
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      State& st = state[k];
      if (st.done) continue;
      AskTellPair& p = pairs[k];
      const rl::RunResult& res = *p.out;
      if (res.evals >= p.steps ||
          (p.max_sims >= 0 && res.sims >= p.max_sims)) {
        st.done = true;
        continue;
      }
      {
        Tracer::Scope span(t_, p.ask);
        st.xs = p.opt->ask();
      }
      if (st.xs.empty()) {
        st.done = true;
        continue;
      }
      std::size_t room = static_cast<std::size_t>(p.steps - res.evals);
      if (p.max_sims >= 0) {
        room = std::min(room, static_cast<std::size_t>(p.max_sims - res.sims));
      }
      if (st.xs.size() > room) st.xs.resize(room);
      st.mats.clear();
      st.mats.reserve(st.xs.size());
      for (const auto& x : st.xs) {
        st.mats.push_back(p.env->bench().space.unflatten(x));
      }
      for (const gcnrl::la::Mat& m : st.mats) {
        jobs.push_back(
            env::EvalJob{&p.env->bench(), &m, p.env->eval_attr()});
      }
      asked.push_back(k);
    }
    if (jobs.empty()) break;
    std::vector<env::EvalResult> results;
    {
      Tracer::Scope span(t_, eval_batch_);
      results = svc_->eval_batch_multi(jobs);
    }
    std::size_t offset = 0;
    for (const std::size_t k : asked) {
      State& st = state[k];
      AskTellPair& p = pairs[k];
      const gcnrl::circuit::DesignSpace& space = p.env->bench().space;
      std::vector<double> ys;
      ys.reserve(st.xs.size());
      {
        Tracer::Scope span(t_, commit_);
        for (std::size_t i = 0; i < st.xs.size(); ++i) {
          const env::EvalResult& r = results[offset + i];
          ys.push_back(r.fom);
          p.out->sims += st.ledger.charge(space, r.params);
          p.out->commit_flat(space, st.xs[i], r);
          count(r);
        }
      }
      {
        Tracer::Scope span(t_, p.tell);
        p.opt->tell(st.xs, ys);
      }
      offset += st.xs.size();
    }
  }
}

}  // namespace

Factories set_up(const std::vector<api::TaskSpec>& tasks,
                 const api::RunOptions& opts, Tracer& tracer) {
  const int build = tracer.name_id("api.build_circuit");
  const int calibrate = tracer.name_id("env.calibrate");
  Factories factories;
  gcnrl::Rng calib_rng(opts.calib_seed);
  for (const api::TaskSpec& t : tasks) {
    if (factory_of(factories, t, opts) != nullptr) continue;
    const gcnrl::circuit::Technology tech =
        gcnrl::circuit::make_technology(t.node);
    {
      Tracer::Scope span(tracer, build);
      (void)api::build_circuit(t.circuit, tech);
    }
    Tracer::Scope span(tracer, calibrate);
    factories.emplace_back(
        factory_key(t, opts),
        std::make_unique<api::EnvFactory>(t.circuit, tech,
                                          t.index_mode.value_or(opts.mode),
                                          opts.calib_samples, calib_rng,
                                          opts.service));
  }
  return factories;
}

TracedResult run_traced(const std::vector<api::TaskSpec>& tasks,
                        const api::RunOptions& opts, Tracer& tracer) {
  // --- validate + normalize, as run_tasks does --------------------------
  std::vector<api::TaskSpec> specs = tasks;
  std::vector<const api::MethodInfo*> infos;
  for (api::TaskSpec& t : specs) {
    const api::MethodInfo& mi = api::method_info(t.method);
    infos.push_back(&mi);
    if (!t.circuit_file.empty() || !t.pretrain_from.empty() ||
        !t.load_checkpoint.empty() || !t.save_checkpoint.empty()) {
      throw std::invalid_argument(
          "traced driver: circuit files, pretrain and checkpoint chains are "
          "not traced");
    }
    api::require_circuit(t.circuit);
    if (t.steps <= 0 || t.seeds <= 0) {
      throw std::invalid_argument("traced driver: steps and seeds must be > 0");
    }
    if (t.sim_budget > 0 && mi.kind != api::MethodKind::AskTell) {
      throw std::invalid_argument(
          "traced driver: sim_budget applies only to ask/tell methods");
    }
    if (t.seed_stride != 0 && !t.seed_base) {
      throw std::invalid_argument("traced driver: seed_stride needs seed_base");
    }
    if (t.warmup < 0) t.warmup = 0;
    if (t.warmup >= t.steps) t.warmup = t.steps / 3;
    if (t.label.empty()) t.label = t.method + "/" + t.circuit + "@" + t.node;
  }
  if (!opts.service) {
    throw std::invalid_argument("traced driver: RunOptions::service is unset");
  }
  env::EvalService& svc = *opts.service;
  // --- budget chains (BO/MACE -> ES) and the levels they imply -----------
  const auto chained = [&](std::size_t i) {
    return !infos[i]->budget_from.empty() && specs[i].sim_budget == 0;
  };
  std::vector<int> budget_src(specs.size(), -1);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!chained(i)) continue;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (j == i || specs[j].method != infos[i]->budget_from) continue;
      if (specs[j].circuit != specs[i].circuit ||
          specs[j].node != specs[i].node ||
          specs[j].steps != specs[i].steps ||
          specs[j].seeds != specs[i].seeds) {
        continue;
      }
      if (chained(j)) {
        throw std::invalid_argument(
            "traced driver: a budget source is itself budget-chained");
      }
      budget_src[i] = static_cast<int>(j);
      break;
    }
  }
  const int max_level =
      std::any_of(budget_src.begin(), budget_src.end(),
                  [](int s) { return s >= 0; })
          ? 1
          : 0;

  TracedResult out;
  Tracer::Scope root(tracer, tracer.name_id("driver.run"));
  const Snapshot start = snapshot(svc);

  Factories factories;
  {
    Tracer::Scope setup(tracer, tracer.name_id("driver.setup"));
    factories = set_up(specs, opts, tracer);
  }
  const Snapshot calibrated = snapshot(svc);
  out.calibrate = between(start, calibrated);

  // --- execute level by level -------------------------------------------
  std::vector<std::vector<rl::RunResult>> runs(specs.size());
  LevelRunner runner(tracer, opts.service, out);
  const int level_name = tracer.name_id("driver.level");
  for (int lev = 0; lev <= max_level; ++lev) {
    Tracer::Scope span(tracer, level_name);
    std::vector<Plan> plans;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if ((budget_src[i] >= 0 ? 1 : 0) != lev) continue;
      const api::TaskSpec& t = specs[i];
      Plan plan;
      plan.spec = &t;
      plan.mi = infos[i];
      plan.factory = factory_of(factories, t, opts);
      plan.out = &runs[i];
      if (t.sim_budget > 0) {
        plan.budgets.assign(static_cast<std::size_t>(t.seeds), t.sim_budget);
      } else if (budget_src[i] >= 0) {
        for (const rl::RunResult& r :
             runs[static_cast<std::size_t>(budget_src[i])]) {
          plan.budgets.push_back(r.sims);
        }
      }
      plans.push_back(std::move(plan));
    }
    runner.run(plans);
  }
  out.search = between(calibrated, snapshot(svc));

  for (std::size_t i = 0; i < specs.size(); ++i) {
    api::TaskResult tr;
    tr.spec = specs[i];
    tr.runs = std::move(runs[i]);
    for (const rl::RunResult& r : tr.runs) {
      tr.best.push_back(r.best_fom);
      tr.sims.push_back(r.sims);
    }
    tr.mean = gcnrl::la::mean(tr.best);
    tr.stddev = gcnrl::la::stddev(tr.best);
    out.results.push_back(std::move(tr));
  }
  return out;
}

}  // namespace perfbench
