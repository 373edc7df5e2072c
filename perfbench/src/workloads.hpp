// The benchmark's workloads: each one is an api::TaskSpec list generated
// from the workload seed, chosen so that one layer of the library does
// most of the work (see perfbench/README.md for the reasons).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/task.hpp"

namespace perfbench {

// Evaluation threads of the one shared EvalService every run uses.
inline constexpr int kThreads = 4;

struct Workload {
  std::string name;
  std::string dominant;  // the layer predicted to do most of the work
  std::vector<gcnrl::api::TaskSpec> tasks;
  int calib_samples = 300;
  std::uint64_t calib_seed = 0;
};

// `tiny` shrinks every step count so a whole workload runs in about a
// second (the self-check mode). Throws std::invalid_argument for an
// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

[[nodiscard]] std::vector<std::string> workload_names();

// RunOptions for one run of `w`: a fresh service (so every run starts with
// a cold result cache) with the benchmark's fixed thread count.
gcnrl::api::RunOptions run_options(const Workload& w);

}  // namespace perfbench
