#include "nn/linear.hpp"

namespace gcnrl::nn {

Linear::Linear(std::string name, int in_features, int out_features, Rng& rng,
               double out_scale)
    : w_(name + ".w", out_scale < 0.0
                          ? xavier_uniform(in_features, out_features, rng)
                          : uniform_init(in_features, out_features, out_scale,
                                         rng)),
      b_(name + ".b", la::Mat(1, out_features)) {}

ag::Var Linear::forward(ag::Tape& tape, ag::Var x, Params mode) {
  ag::Var w = leaf(tape, w_, mode);
  ag::Var b = leaf(tape, b_, mode);
  return ag::add_row_broadcast(ag::matmul(x, w), b);
}

}  // namespace gcnrl::nn
