// Differentiable matrix operations on Tape/Var.
//
// Shapes follow the "rows = graph nodes / batch entries, cols = features"
// convention used throughout the NN stack. Every op asserts its shape
// contract; the pull-backs are verified against numerical gradients in
// tests/test_autograd.cpp. The constant matrices k and mask are
// referenced by the tape, not copied: they must outlive Tape::backward().
#pragma once

#include "autograd/tape.hpp"

namespace gcnrl::ag {

// c = a @ b
Var matmul(Var a, Var b);
// c = K @ a with a constant left matrix (GCN aggregation by A-hat).
Var matmul_const_left(const la::Mat& k, Var a);
// Elementwise.
Var add(Var a, Var b);
Var sub(Var a, Var b);
Var hadamard(Var a, Var b);
// Elementwise product with a constant mask (e.g. per-type row masks).
Var hadamard_const(Var a, const la::Mat& mask);
Var scale(Var a, double s);
Var add_scalar(Var a, double s);
// m (n x d) + row (1 x d), broadcast over rows (bias add).
Var add_row_broadcast(Var m, Var row);
// Activations.
Var relu(Var a);
Var tanh_(Var a);
Var sigmoid(Var a);
// Reductions (return 1x1).
Var mean_all(Var a);
Var sum_all(Var a);
// Mean of squared difference against a constant target (loss helper).
Var mse_const(Var a, const la::Mat& target);
// Row-wise concatenation of features: [a | b] with equal row counts.
Var concat_cols(Var a, Var b);

}  // namespace gcnrl::ag
