// Table I reproduction: FoM comparison of Human / Random / ES / BO / MACE
// / NG-RL / GCN-RL on the four benchmark circuits at 180 nm.
//
// Paper protocol: 10 000 steps for Random/ES/NG-RL/GCN-RL, budget-matched
// BO/MACE (the paper matched runtime; we match the underlying cost — each
// BO/MACE seed stops at the simulated cost of the matching ES seed), 3
// runs each, FoM normalizers from 5000 random samples. Every budget is a
// simulation count, so the emitted table is bit-reproducible run-to-run.
// Scale with GCNRL_FULL=1 / GCNRL_STEPS / GCNRL_SEEDS / GCNRL_CALIB (see
// README "Benchmarks"); defaults reproduce the ordering in minutes.
//
// The whole experiment is one declarative task list handed to
// api::run_tasks: the planner calibrates each circuit once, chains the
// BO/MACE budgets off the matching ES tasks automatically, and advances
// every (task, seed) pair in lockstep on one shared EvalService.
#include <cstdio>
#include <map>

#include "common.hpp"

using namespace gcnrl;

namespace {

// Paper Table I reference values (mean) for side-by-side comparison.
const std::map<std::string, std::map<std::string, double>> kPaperFoM = {
    {"Two-TIA",
     {{"Human", 2.32}, {"Random", 2.46}, {"ES", 2.66}, {"BO", 2.48},
      {"MACE", 2.54}, {"NG-RL", 2.59}, {"GCN-RL", 2.69}}},
    {"Two-Volt",
     {{"Human", 2.02}, {"Random", 1.74}, {"ES", 1.91}, {"BO", 1.85},
      {"MACE", 1.70}, {"NG-RL", 1.98}, {"GCN-RL", 2.23}}},
    {"Three-TIA",
     {{"Human", 1.15}, {"Random", 0.74}, {"ES", 1.30}, {"BO", 1.24},
      {"MACE", 1.27}, {"NG-RL", 1.39}, {"GCN-RL", 1.40}}},
    {"LDO",
     {{"Human", 0.61}, {"Random", 0.27}, {"ES", 0.40}, {"BO", 0.45},
      {"MACE", 0.58}, {"NG-RL", 0.71}, {"GCN-RL", 0.79}}},
};

}  // namespace

int main() {
  const BenchConfig cfg = bench_config();
  const auto svc =
      std::make_shared<env::EvalService>(env::eval_config_from_env());

  std::printf(
      "Table I: FoM comparison (steps=%d, warmup=%d, seeds=%d, calib=%d)\n"
      "Paper values in [brackets]. FoM scale: ours saturates each metric\n"
      "in [0,1] over the calibrated range; shapes, not absolutes, compare.\n"
      "%s\n\n",
      cfg.steps, cfg.warmup, cfg.seeds, cfg.calib_samples,
      bench::eval_banner().c_str());

  // The experiment as data: per circuit, the human anchor plus one sweep
  // task per method. BO/MACE need no explicit budgets — run_tasks chains
  // them off the ES task of the same circuit.
  std::vector<api::TaskSpec> tasks;
  for (const auto& circuit_name : circuits::benchmark_names()) {
    api::TaskSpec base;
    base.circuit = circuit_name;
    base.steps = cfg.steps;
    base.warmup = cfg.warmup;
    base.seeds = cfg.seeds;
    {
      api::TaskSpec human = base;
      human.method = "Human";
      human.seeds = 1;
      tasks.push_back(human);
    }
    for (const auto& method : bench::kMethods) {
      api::TaskSpec t = base;
      t.method = method;
      tasks.push_back(t);
    }
  }
  api::RunOptions opts;
  opts.service = svc;
  opts.calib_samples = cfg.calib_samples;
  // Progress note on stderr: the merged lockstep plan finishes all tasks
  // together, so per-cell rows only appear (on stdout, which stays
  // byte-reproducible) once everything is done.
  std::fprintf(stderr, "running %zu tasks through api::run_tasks; rows "
               "print on completion...\n", tasks.size());
  const auto results = api::run_tasks(tasks, opts);

  TextTable table({"Method", "Two-TIA", "Two-Volt", "Three-TIA", "LDO"});
  std::map<std::string, std::map<std::string, std::string>> cells;
  for (const auto& r : results) {
    const std::string& method = r.spec.method;
    const std::string& circuit_name = r.spec.circuit;
    const double paper = kPaperFoM.at(circuit_name).at(method);
    if (method == "Human") {
      cells[method][circuit_name] = TextTable::num(r.best.front(), 3) +
                                    " [" + TextTable::num(paper, 3) + "]";
      continue;
    }
    cells[method][circuit_name] =
        bench::pm(r.mean, r.stddev) + " [" + TextTable::num(paper, 3) + "]";
    std::printf("  %-10s %-9s %s\n", circuit_name.c_str(), method.c_str(),
                cells[method][circuit_name].c_str());
  }

  std::printf("\n");
  for (const auto& method :
       std::vector<std::string>{"Human", "Random", "ES", "BO", "MACE",
                                "NG-RL", "GCN-RL"}) {
    table.add_row({method, cells[method]["Two-TIA"],
                   cells[method]["Two-Volt"], cells[method]["Three-TIA"],
                   cells[method]["LDO"]});
  }
  table.print();
  std::printf("%s\n", bench::service_usage(*svc).c_str());
  return 0;
}
