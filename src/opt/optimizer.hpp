// Common ask/tell interface for the black-box baselines of Table I
// (random search, CMA-ES, Bayesian optimization, MACE).
//
// All optimizers work on the flattened action space x in [-1, 1]^dim and
// MAXIMIZE the objective (the FoM). The environment applies the identical
// refinement pipeline to these vectors as to the RL agent's actions, so
// every method searches the same legal design space.
//
// Concurrency: rl::run_optimizer_lockstep runs the ask()/tell() calls of
// distinct instances concurrently on the evaluation pool. An optimizer
// must therefore keep all its state in the instance (no mutable statics
// shared between instances), and ask()/tell() must not call into the
// EvalService.
#pragma once

#include <vector>

#include "common/rng.hpp"

namespace gcnrl::opt {

class Optimizer {
 public:
  virtual ~Optimizer() = default;

  // Propose one batch of candidate points (at least one).
  virtual std::vector<std::vector<double>> ask() = 0;
  // Report the objective value for each point of the last ask() batch.
  virtual void tell(const std::vector<std::vector<double>>& xs,
                    const std::vector<double>& ys) = 0;

  [[nodiscard]] virtual int dim() const = 0;
};

}  // namespace gcnrl::opt
