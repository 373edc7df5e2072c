// Fully-connected layer: y = x W + b, applied row-wise.
//
// In this codebase rows are circuit components (graph nodes), so a Linear
// is exactly the paper's "shared FC layer": the same weights process every
// component's feature vector.
#pragma once

#include "common/rng.hpp"
#include "nn/init.hpp"
#include "nn/module.hpp"

namespace gcnrl::nn {

class Linear : public Module {
 public:
  // `out_scale` < 0 selects Xavier init; otherwise U(-out_scale, out_scale)
  // (used for near-zero output layers).
  Linear(std::string name, int in_features, int out_features, Rng& rng,
         double out_scale = -1.0);

  ag::Var forward(ag::Tape& tape, ag::Var x, Params mode = Params::kTrain);

  std::vector<Parameter*> parameters() override { return {&w_, &b_}; }
  [[nodiscard]] int in_features() const { return w_.value.rows(); }
  [[nodiscard]] int out_features() const { return w_.value.cols(); }

 private:
  Parameter w_;
  Parameter b_;
};

}  // namespace gcnrl::nn
