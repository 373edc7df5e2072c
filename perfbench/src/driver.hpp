// The traced driver: re-runs a task list through the same public calls
// api::run_tasks makes, with a span around each call into a layer and the
// process-global counters read between phases. It reproduces run_tasks
// bit for bit for the task features the workloads use (budget chains,
// seed ladders, calibration groups); pretrain/checkpoint chains, circuit
// files and the Human anchor are rejected.
//
// Limit: the driver copies the loops of rl::run_ddpg_lockstep and
// rl::run_optimizer_lockstep. A change inside those loops moves the
// untraced wall time but not the traced driver; the trace's
// overhead ratio (traced wall / untraced wall) is where that shows.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/task.hpp"
#include "sim/perf.hpp"
#include "trace.hpp"

namespace perfbench {

// Service-wide evaluation counters (EvalService) at one instant.
struct ServiceCounts {
  long requested = 0;
  long sims = 0;
  long cache_hits = 0;
};

// Counters bracketed around one phase: the difference between the
// snapshots taken at its start and end.
struct PhaseCounts {
  gcnrl::sim::SimPerf sim;
  ServiceCounts svc;
};

struct TracedResult {
  std::vector<gcnrl::api::TaskResult> results;
  PhaseCounts calibrate;  // build + calibration of every factory
  PhaseCounts search;     // everything after calibration
  long evals = 0;         // evaluations committed in the search phase
  long failed_evals = 0;  // of those, results with sim_ok == false
  long updates = 0;       // DDPG critic/actor updates run
};

// The set-up api::run_tasks does before searching: api::build_circuit and
// one calibrated api::EnvFactory per distinct (circuit, node, index mode,
// calib_group) tuple, in first-appearance order, all drawing from one
// Rng(opts.calib_seed). Keyed by that tuple; spans go to `tracer`.
using Factories =
    std::vector<std::pair<std::string, std::unique_ptr<gcnrl::api::EnvFactory>>>;
Factories set_up(const std::vector<gcnrl::api::TaskSpec>& tasks,
                 const gcnrl::api::RunOptions& opts, Tracer& tracer);

TracedResult run_traced(const std::vector<gcnrl::api::TaskSpec>& tasks,
                        const gcnrl::api::RunOptions& opts, Tracer& tracer);

}  // namespace perfbench
