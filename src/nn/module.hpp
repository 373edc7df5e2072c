// Parameter / Module plumbing for the neural-network stack.
//
// A Parameter owns its value and gradient buffers; Modules expose their
// parameters so optimizers (nn::Adam) and the weight (de)serializer can
// iterate them generically. Forward passes are written against an
// ag::Tape: Module::leaf() lifts a Parameter onto the tape as a node that
// references its value (no copy) and whose gradient Tape::backward() adds
// into Parameter::grad.
#pragma once

#include <string>
#include <vector>

#include "autograd/ops.hpp"
#include "autograd/tape.hpp"

namespace gcnrl::nn {

// How a forward pass lifts a module's parameters. kTrain: differentiable
// leaves whose gradient reaches Parameter::grad. kFrozen: constants, for a
// pass that differentiates only its inputs (the DDPG actor step through
// the critic).
enum class Params { kTrain, kFrozen };

struct Parameter {
  std::string name;
  la::Mat value;
  la::Mat grad;

  Parameter() = default;
  Parameter(std::string n, la::Mat v)
      : name(std::move(n)), value(std::move(v)),
        grad(value.rows(), value.cols()) {}

  void zero_grad() { grad.fill(0.0); }
};

class Module {
 public:
  virtual ~Module() = default;
  // All trainable parameters of this module (and submodules).
  virtual std::vector<Parameter*> parameters() = 0;

  void zero_grad() {
    for (Parameter* p : parameters()) p->zero_grad();
  }

 protected:
  // Lift a parameter onto a tape by reference (see ag::Tape's lifetime
  // rules). With kTrain, backward() adds the leaf's gradient into p.grad,
  // so gradients survive Tape::clear().
  static ag::Var leaf(ag::Tape& tape, Parameter& p,
                      Params mode = Params::kTrain);
};

}  // namespace gcnrl::nn
