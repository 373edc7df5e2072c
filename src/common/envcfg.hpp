// Benchmark scaling knobs (see README "Benchmarks").
//
// The paper's full protocol (10 000 search steps x 3 seeds x 7 methods x 4
// circuits) takes hours; the default configuration reproduces the *shape*
// of every table/figure in minutes on a single core. Environment variables:
//
//   GCNRL_STEPS   override search steps per run
//   GCNRL_SEEDS   override number of seeds per configuration
//   GCNRL_CALIB   override FoM-calibration random-sample count
//   GCNRL_FULL=1  select the paper-scale protocol wholesale
#pragma once

#include <string>

namespace gcnrl {

struct BenchConfig {
  int steps = 300;        // search steps per optimization run
  int warmup = 100;       // RL warm-up (random) steps
  int transfer_steps = 150;  // steps for the transfer experiments
  int transfer_warmup = 50;
  int seeds = 2;          // paper: 3
  int calib_samples = 300;  // paper: 5000
  bool full = false;
};

// Reads the environment and produces the effective configuration.
BenchConfig bench_config();

// Integer environment variable with default. Malformed values ("abc",
// "12abc", "1.5", out-of-int-range) never parse silently: they emit a
// one-line warning on stderr and fall back to `fallback`. Unset or empty
// values fall back silently.
int env_int(const char* name, int fallback);
// Boolean flag (tokens case-insensitive). False: unset, "", "0", "false",
// "no", "off"; true: "1", "true", "yes", "on". Any other value warns on
// stderr and counts as true (the historical any-non-empty-is-true
// behaviour, made loud).
bool env_flag(const char* name);

}  // namespace gcnrl
