#include "workloads.hpp"

#include <memory>
#include <stdexcept>

namespace perfbench {
namespace api = gcnrl::api;

namespace {

// splitmix64: spreads one workload seed into independent task seeds.
std::uint64_t mix(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + (k + 1) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

api::TaskSpec task(const std::string& method, const std::string& circuit,
                   int steps, int seeds) {
  api::TaskSpec t;
  t.method = method;
  t.circuit = circuit;
  t.steps = steps;
  t.seeds = seeds;
  return t;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"rl_two_tia", "gp_two_tia", "sim_ldo"};
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  w.name = name;
  if (name == "rl_two_tia") {
    w.dominant = "rl.observe.learn";
    api::TaskSpec t = task("GCN-RL", "Two-TIA", tiny ? 6 : 24, 4);
    t.warmup = tiny ? 3 : 12;
    w.tasks.push_back(t);
  } else if (name == "gp_two_tia") {
    w.dominant = "opt.ask_tell";
    const int steps = tiny ? 14 : 100;
    for (const char* m : {"ES", "BO", "MACE"}) {
      w.tasks.push_back(task(m, "Two-TIA", steps, 2));
    }
  } else if (name == "sim_ldo") {
    w.dominant = "env.eval_batch";
    // Twelve ES seeds rather than two: how often an ES run wanders into
    // failing LDO designs (which skip the transient benches) varies by
    // seed, and so does its cost; over twelve seeds of 150 steps those
    // swings average out, so the cost of a call varies little with --seed.
    w.tasks.push_back(task("ES", "LDO", tiny ? 8 : 150, 12));
    w.tasks.push_back(task("Random", "Two-Volt", tiny ? 8 : 300, 2));
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  if (tiny) w.calib_samples = 16;
  w.calib_seed = mix(seed, 0);
  for (std::size_t k = 0; k < w.tasks.size(); ++k) {
    // Kept below 2^40 so seed_base + stride * s never wraps.
    w.tasks[k].seed_base = mix(seed, k + 1) >> 24;
    w.tasks[k].seed_stride = 7919;
  }
  return w;
}

api::RunOptions run_options(const Workload& w) {
  gcnrl::env::EvalServiceConfig cfg;
  cfg.threads = kThreads;
  api::RunOptions opts;
  opts.service = std::make_shared<gcnrl::env::EvalService>(cfg);
  opts.calib_samples = w.calib_samples;
  opts.calib_seed = w.calib_seed;
  return opts;
}

}  // namespace perfbench
