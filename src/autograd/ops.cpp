// Forward values of every op, and their pull-backs: one switch over the
// op enum that Tape::backward() runs newest node first. Each pull-back
// does exactly the arithmetic, in the same order, that a per-node
// temporary `operand.grad += f(node.grad, ...)` would, so the gradients'
// bits do not depend on the tape's storage layout.
#include "autograd/ops.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace gcnrl::ag {
namespace {

Tape& common_tape(const Var& a, const Var& b) {
  if (a.tape() != b.tape()) {
    throw std::invalid_argument("autograd op: vars from different tapes");
  }
  return *a.tape();
}

// A node of `op` over operands a (and b), shaped rows x cols, that needs a
// gradient when either operand does. Operand slots are copied by the
// callers below because record() may move the slot vector.
Node op_node(Op op, const Node& a, int ai, int rows, int cols) {
  Node n;
  n.op = op;
  n.requires_grad = a.requires_grad;
  n.rows = rows;
  n.cols = cols;
  n.a = ai;
  return n;
}

Node op_node(Op op, const Node& a, int ai, const Node& b, int bi, int rows,
             int cols) {
  Node n = op_node(op, a, ai, rows, cols);
  n.requires_grad = a.requires_grad || b.requires_grad;
  n.b = bi;
  return n;
}

// C (+)= A·B through the one la kernel, A and B row-major.
void gemm(int n, int k, int m, const double* a, const double* b, double* c,
          bool accumulate) {
  la::matmul_kernel(n, k, m, a, k, 1, b, m, c, m, accumulate);
}

// C (+)= Aᵀ·B with A stored k x n, row-major.
void gemm_tn(int n, int k, int m, const double* a, const double* b, double* c,
             bool accumulate) {
  la::matmul_kernel(n, k, m, a, 1, n, b, m, c, m, accumulate);
}

void add_into(double* dst, const double* src, std::size_t size) {
  for (std::size_t e = 0; e < size; ++e) dst[e] += src[e];
}

// Dispatch on `n.op`: adds n's gradient's contribution into its operands'.
void pullback(Tape& tape, const Node& n) {
  const double* g = n.grad;
  const std::size_t size = n.size();
  switch (n.op) {
    case Op::kInput:
    case Op::kConstant:
      return;
    case Op::kParameter: {
      add_into(n.sink->data(), g, size);
      return;
    }
    case Op::kMatmul: {
      const Node& a = tape.node(n.a);
      const Node& b = tape.node(n.b);
      const int k = a.cols;
      if (a.requires_grad) {
        // a.grad += G·Bᵀ (Bᵀ kept by the tape when B is a parameter).
        gemm(n.rows, n.cols, k, g, tape.transposed_value(b), a.grad, true);
      }
      if (b.requires_grad) gemm_tn(k, n.rows, n.cols, a.val, g, b.grad, true);
      return;
    }
    case Op::kMatmulConstLeft: {
      const Node& a = tape.node(n.a);
      gemm_tn(a.rows, n.rows, n.cols, n.k, g, a.grad, true);
      return;
    }
    case Op::kAdd:
    case Op::kSub: {
      const Node& a = tape.node(n.a);
      const Node& b = tape.node(n.b);
      if (a.requires_grad) add_into(a.grad, g, size);
      if (b.requires_grad) {
        if (n.op == Op::kAdd) {
          add_into(b.grad, g, size);
        } else {
          for (std::size_t e = 0; e < size; ++e) b.grad[e] -= g[e];
        }
      }
      return;
    }
    case Op::kHadamard: {
      const Node& a = tape.node(n.a);
      const Node& b = tape.node(n.b);
      if (a.requires_grad) {
        for (std::size_t e = 0; e < size; ++e) a.grad[e] += g[e] * b.val[e];
      }
      if (b.requires_grad) {
        for (std::size_t e = 0; e < size; ++e) b.grad[e] += g[e] * a.val[e];
      }
      return;
    }
    case Op::kHadamardConst: {
      const Node& a = tape.node(n.a);
      for (std::size_t e = 0; e < size; ++e) a.grad[e] += g[e] * n.k[e];
      return;
    }
    case Op::kScale: {
      const Node& a = tape.node(n.a);
      for (std::size_t e = 0; e < size; ++e) a.grad[e] += g[e] * n.s;
      return;
    }
    case Op::kAddScalar: {
      add_into(tape.node(n.a).grad, g, size);
      return;
    }
    case Op::kAddRowBroadcast: {
      const Node& m = tape.node(n.a);
      const Node& row = tape.node(n.b);
      if (m.requires_grad) add_into(m.grad, g, size);
      if (row.requires_grad) {
        for (int r = 0; r < n.rows; ++r) {
          add_into(row.grad, g + static_cast<std::size_t>(r) * n.cols,
                   static_cast<std::size_t>(n.cols));
        }
      }
      return;
    }
    case Op::kRelu: {
      const Node& a = tape.node(n.a);
      for (std::size_t e = 0; e < size; ++e) {
        if (a.val[e] > 0.0) a.grad[e] += g[e];
      }
      return;
    }
    case Op::kTanh: {
      const Node& a = tape.node(n.a);
      for (std::size_t e = 0; e < size; ++e) {
        const double y = n.val[e];
        a.grad[e] += g[e] * (1.0 - y * y);
      }
      return;
    }
    case Op::kSigmoid: {
      const Node& a = tape.node(n.a);
      for (std::size_t e = 0; e < size; ++e) {
        const double y = n.val[e];
        a.grad[e] += g[e] * y * (1.0 - y);
      }
      return;
    }
    case Op::kMeanAll:
    case Op::kSumAll: {
      const Node& a = tape.node(n.a);
      const double ga = n.op == Op::kMeanAll ? g[0] / n.s : g[0];
      for (std::size_t e = 0; e < a.size(); ++e) a.grad[e] += ga;
      return;
    }
    case Op::kMseConst: {
      const Node& a = tape.node(n.a);
      const double* target = tape.node(n.b).val;
      const double ga = 2.0 * g[0] / n.s;
      for (std::size_t e = 0; e < a.size(); ++e) {
        a.grad[e] += ga * (a.val[e] - target[e]);
      }
      return;
    }
    case Op::kConcatCols: {
      const Node& a = tape.node(n.a);
      const Node& b = tape.node(n.b);
      for (int r = 0; r < n.rows; ++r) {
        const double* gr = g + static_cast<std::size_t>(r) * n.cols;
        if (a.requires_grad) {
          add_into(a.grad + static_cast<std::size_t>(r) * a.cols, gr,
                   static_cast<std::size_t>(a.cols));
        }
        if (b.requires_grad) {
          add_into(b.grad + static_cast<std::size_t>(r) * b.cols, gr + a.cols,
                   static_cast<std::size_t>(b.cols));
        }
      }
      return;
    }
  }
}

}  // namespace

void Tape::backward(const Var& root) {
  if (root.tape() != this) {
    throw std::invalid_argument("Tape::backward: var from another tape");
  }
  if (root.rows() != 1 || root.cols() != 1) {
    throw std::invalid_argument("Tape::backward: root must be a 1x1 scalar");
  }
  node(root.index()).grad[0] = 1.0;
  // Creation order is a valid topological order: every node's operands
  // were recorded before it, so a reverse sweep sees each node before its
  // operands.
  for (std::size_t i = nodes_.size(); i-- > 0;) {
    if (nodes_[i].requires_grad) pullback(*this, nodes_[i]);
  }
}

Var matmul(Var a, Var b) {
  Tape& t = common_tape(a, b);
  const Node an = t.node(a.index());
  const Node bn = t.node(b.index());
  assert(an.cols == bn.rows);
  const auto out = t.record(op_node(Op::kMatmul, an, a.index(), bn, b.index(),
                                    an.rows, bn.cols));
  gemm(an.rows, an.cols, bn.cols, an.val, bn.val, out.val, false);
  return out.var;
}

Var matmul_const_left(const la::Mat& k, Var a) {
  Tape& t = *a.tape();
  const Node an = t.node(a.index());
  assert(k.cols() == an.rows);
  Node n = op_node(Op::kMatmulConstLeft, an, a.index(), k.rows(), an.cols);
  n.k = k.data();
  const auto out = t.record(n);
  gemm(k.rows(), k.cols(), an.cols, k.data(), an.val, out.val, false);
  return out.var;
}

namespace {

// Elementwise binary op: out[e] = f(a[e], b[e]).
template <typename F>
Var elementwise(Op op, Var a, Var b, F f) {
  Tape& t = common_tape(a, b);
  const Node an = t.node(a.index());
  const Node bn = t.node(b.index());
  assert(an.rows == bn.rows && an.cols == bn.cols);
  const auto out = t.record(
      op_node(op, an, a.index(), bn, b.index(), an.rows, an.cols));
  for (std::size_t e = 0; e < an.size(); ++e) {
    out.val[e] = f(an.val[e], bn.val[e]);
  }
  return out.var;
}

// Elementwise unary op with an optional scalar or constant operand.
template <typename F>
Var unary(Op op, Var a, double s, const double* k, F f) {
  Tape& t = *a.tape();
  const Node an = t.node(a.index());
  Node n = op_node(op, an, a.index(), an.rows, an.cols);
  n.s = s;
  n.k = k;
  const auto out = t.record(n);
  for (std::size_t e = 0; e < an.size(); ++e) out.val[e] = f(an.val[e], e);
  return out.var;
}

// 1x1 reduction of `a` whose value is `value`; the scalar operand is a's
// entry count. `b` is an optional second (constant) operand.
Var reduction(Op op, Var a, int b, double value) {
  Tape& t = *a.tape();
  const Node an = t.node(a.index());
  Node n = op_node(op, an, a.index(), 1, 1);
  n.s = static_cast<double>(an.size());
  n.b = b;
  const auto out = t.record(n);
  out.val[0] = value;
  return out.var;
}

}  // namespace

Var add(Var a, Var b) {
  return elementwise(Op::kAdd, a, b, [](double x, double y) { return x + y; });
}

Var sub(Var a, Var b) {
  return elementwise(Op::kSub, a, b, [](double x, double y) { return x - y; });
}

Var hadamard(Var a, Var b) {
  return elementwise(Op::kHadamard, a, b,
                     [](double x, double y) { return x * y; });
}

Var hadamard_const(Var a, const la::Mat& mask) {
  assert(a.rows() == mask.rows() && a.cols() == mask.cols());
  const double* m = mask.data();
  return unary(Op::kHadamardConst, a, 0.0, m,
               [m](double x, std::size_t e) { return x * m[e]; });
}

Var scale(Var a, double s) {
  return unary(Op::kScale, a, s, nullptr,
               [s](double x, std::size_t) { return x * s; });
}

Var add_scalar(Var a, double s) {
  return unary(Op::kAddScalar, a, s, nullptr,
               [s](double x, std::size_t) { return x + s; });
}

Var add_row_broadcast(Var m, Var row) {
  Tape& t = common_tape(m, row);
  const Node mn = t.node(m.index());
  const Node rn = t.node(row.index());
  assert(rn.rows == 1 && rn.cols == mn.cols);
  const auto out = t.record(op_node(Op::kAddRowBroadcast, mn, m.index(), rn,
                                    row.index(), mn.rows, mn.cols));
  for (int r = 0; r < mn.rows; ++r) {
    const std::size_t off = static_cast<std::size_t>(r) * mn.cols;
    for (int c = 0; c < mn.cols; ++c) {
      out.val[off + c] = mn.val[off + c] + rn.val[c];
    }
  }
  return out.var;
}

Var relu(Var a) {
  return unary(Op::kRelu, a, 0.0, nullptr,
               [](double x, std::size_t) { return x < 0.0 ? 0.0 : x; });
}

Var tanh_(Var a) {
  return unary(Op::kTanh, a, 0.0, nullptr,
               [](double x, std::size_t) { return std::tanh(x); });
}

Var sigmoid(Var a) {
  return unary(Op::kSigmoid, a, 0.0, nullptr, [](double x, std::size_t) {
    return 1.0 / (1.0 + std::exp(-x));
  });
}

Var mean_all(Var a) {
  const MatView v = a.value();
  double acc = 0.0;
  for (std::size_t e = 0; e < v.size(); ++e) acc += v.data()[e];
  const double n = static_cast<double>(v.size());
  return reduction(Op::kMeanAll, a, -1, n > 0 ? acc / n : 0.0);
}

Var sum_all(Var a) {
  const MatView v = a.value();
  double acc = 0.0;
  for (std::size_t e = 0; e < v.size(); ++e) acc += v.data()[e];
  return reduction(Op::kSumAll, a, -1, acc);
}

Var mse_const(Var a, const la::Mat& target) {
  const MatView v = a.value();
  assert(v.rows() == target.rows() && v.cols() == target.cols());
  double acc = 0.0;
  for (std::size_t e = 0; e < v.size(); ++e) {
    const double d = v.data()[e] - target.data()[e];
    acc += d * d;
  }
  const double n = static_cast<double>(v.size());
  const Var t = a.tape()->constant(target);
  return reduction(Op::kMseConst, a, t.index(), n > 0 ? acc / n : 0.0);
}

Var concat_cols(Var a, Var b) {
  Tape& t = common_tape(a, b);
  const Node an = t.node(a.index());
  const Node bn = t.node(b.index());
  assert(an.rows == bn.rows);
  const auto out = t.record(op_node(Op::kConcatCols, an, a.index(), bn,
                                    b.index(), an.rows, an.cols + bn.cols));
  const int cols = an.cols + bn.cols;
  for (int r = 0; r < an.rows; ++r) {
    double* o = out.val + static_cast<std::size_t>(r) * cols;
    std::copy(an.val + static_cast<std::size_t>(r) * an.cols,
              an.val + static_cast<std::size_t>(r + 1) * an.cols, o);
    std::copy(bn.val + static_cast<std::size_t>(r) * bn.cols,
              bn.val + static_cast<std::size_t>(r + 1) * bn.cols, o + an.cols);
  }
  return out.var;
}

}  // namespace gcnrl::ag
