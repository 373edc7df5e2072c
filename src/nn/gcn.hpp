// Graph convolution layer (Kipf & Welling 2016), Eq. 4 of the paper:
//
//   H^(l+1) = sigma( D~^(-1/2) (A + I) D~^(-1/2)  H^(l)  W^(l) )
//
// The normalized adjacency A-hat is a constant per circuit topology and is
// passed into forward(); the layer owns only its weight matrix (the
// "shared weight" of Fig. 3 — one W per layer, shared across components).
// With A-hat = I the layer degrades to a plain shared FC layer, which is
// exactly the paper's NG-RL ablation.
#pragma once

#include "common/rng.hpp"
#include "nn/init.hpp"
#include "nn/module.hpp"

namespace gcnrl::nn {

// A-hat = D~^{-1/2} (A + I) D~^{-1/2} for a symmetric 0/1 adjacency A.
la::Mat normalized_adjacency(const la::Mat& adjacency);

class GcnLayer : public Module {
 public:
  GcnLayer(std::string name, int in_features, int out_features, Rng& rng);

  // h: n x in_features; a_hat: n x n (constant, referenced by the tape).
  ag::Var forward(ag::Tape& tape, ag::Var h, const la::Mat& a_hat,
                  Params mode = Params::kTrain);

  std::vector<Parameter*> parameters() override { return {&w_, &b_}; }

 private:
  Parameter w_;
  Parameter b_;
};

}  // namespace gcnrl::nn
