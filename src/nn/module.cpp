#include "nn/module.hpp"

namespace gcnrl::nn {

ag::Var Module::leaf(ag::Tape& tape, Parameter& p, Params mode) {
  return tape.parameter(p.value, mode == Params::kTrain ? &p.grad : nullptr);
}

}  // namespace gcnrl::nn
