// Tape-based reverse-mode automatic differentiation over dense matrices.
//
// The RL agent's actor/critic networks (FC + GCN stacks) are built on this:
// a Tape records every op in creation order; backward() walks the tape in
// reverse, applying each node's pull-back. Parameter leaves add their
// gradient into the parameter's own grad buffer, so an optimizer step is
// just "zero grads, forward, backward, Adam.step()".
//
// Design notes
//  * Arena. A node is a plain slot: an op enum, operand node indices, a
//    shape, an optional scalar or constant-matrix operand, and pointers to
//    its value and gradient. Values and gradients live in chunks of double
//    storage that the tape owns and bump-allocates; clear() rewinds the
//    bump pointer and the slot vector but keeps their capacity, so a graph
//    rebuilt with the same shapes (every critic sample, every update)
//    allocates nothing after the first pass. Chunks never move, so a
//    node's storage stays put until clear().
//  * Op enum. backward() dispatches each node's pull-back through one
//    switch (autograd/ops.cpp) on its Op: no closures, no per-node heap
//    objects.
//  * Transposes. A matmul's pull-back needs Wᵀ. When W is a parameter()
//    leaf, the tape transposes it on first use and keeps that copy for
//    its whole life, across clear(), keyed by the value's pointer and
//    shape: a critic step that streams 32 samples through one tape
//    transposes each weight once, not 32 times. Any other W is
//    transposed into a scratch buffer the tape keeps across clear().
//  * Zero gradients. Every node's gradient starts at +0 when the node is
//    recorded; pull-backs add into it in reverse creation order, exactly
//    as separate per-node buffers would.
//
// Lifetime rules
//  * Var handles (and the MatViews they return) are valid until clear() or
//    the tape's destruction.
//  * parameter() references the caller's value and gradient matrices; it
//    copies neither. Both must outlive backward(), and neither may be
//    resized while the tape holds the leaf. A referenced value may not
//    change while the tape lives, not just until clear(): the tape may
//    hold its transpose. Update parameters (an optimizer step, a weight
//    load) only between tapes, and never lift a different value at a
//    freed value's address onto the same tape. Debug builds assert that
//    a kept transpose still matches its value. backward() adds the leaf's
//    summed gradient into the gradient matrix once, when the reverse
//    sweep reaches the leaf, so a leaf used k times yields
//    grad + (g1 + ... + gk).
//  * Constant-matrix operands of ops (A-hat in matmul_const_left, the mask
//    in hadamard_const) are referenced, not copied: they must outlive
//    backward(). mse_const's target is the exception: it is copied into
//    the arena as a constant node, so a caller may reuse or drop it.
//  * input() and constant() copy their matrix into the arena.
//  * A fresh forward pass should call clear() first (graphs here are
//    rebuilt every step; there is no retained-graph mode). Gradients flow
//    only through nodes with requires_grad; constants are free.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "la/matrix.hpp"

namespace gcnrl::ag {

class Tape;

// Read-only view of a node's row-major value or gradient. Converts to an
// owning la::Mat by copy.
class MatView {
 public:
  MatView(const double* data, int rows, int cols)
      : data_(data), rows_(rows), cols_(cols) {}

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(rows_) * cols_;
  }
  [[nodiscard]] const double* data() const { return data_; }
  double operator()(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<std::size_t>(r) * cols_ + c];
  }
  operator la::Mat() const;

 private:
  const double* data_;
  int rows_;
  int cols_;
};

enum class Op : std::uint8_t {
  kInput,      // differentiable leaf (gradient kept on the node)
  kConstant,   // non-differentiable leaf
  kParameter,  // leaf over a referenced value; backward() adds into `sink`
  kMatmul,
  kMatmulConstLeft,
  kAdd,
  kSub,
  kHadamard,
  kHadamardConst,
  kScale,
  kAddScalar,
  kAddRowBroadcast,
  kRelu,
  kTanh,
  kSigmoid,
  kMeanAll,
  kSumAll,
  kMseConst,
  kConcatCols,
};

struct Node {
  Op op = Op::kConstant;
  bool requires_grad = false;
  bool referenced = false;  // val points at a parameter() value
  int rows = 0;
  int cols = 0;
  int a = -1;  // operand node indices (-1: none)
  int b = -1;
  double s = 0.0;                // scalar operand (scale, add_scalar, n)
  const double* k = nullptr;     // referenced constant operand's data
  la::Mat* sink = nullptr;       // kParameter: gradient destination
  const double* val = nullptr;   // arena storage, or a referenced value
  double* grad = nullptr;        // arena storage, zeroed when recorded

  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(rows) * cols;
  }
};

// Lightweight handle to a node on a tape. Copyable; valid until
// Tape::clear() or tape destruction.
class Var {
 public:
  Var() = default;
  Var(Tape* tape, int index) : tape_(tape), index_(index) {}

  [[nodiscard]] MatView value() const;
  [[nodiscard]] MatView grad() const;
  [[nodiscard]] int rows() const;
  [[nodiscard]] int cols() const;
  [[nodiscard]] bool valid() const { return tape_ != nullptr; }

  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] Tape* tape() const { return tape_; }

 private:
  Tape* tape_ = nullptr;
  int index_ = -1;
};

class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // A differentiable leaf (gradient is collected on the node itself).
  Var input(const la::Mat& value);
  // A non-differentiable constant.
  Var constant(const la::Mat& value);
  // A leaf over `value` without a copy. With a non-null `grad`, it is
  // differentiable and backward() adds its gradient into *grad; with a
  // null `grad` it is a constant (a frozen parameter). See the lifetime
  // rules above.
  Var parameter(const la::Mat& value, la::Mat* grad);

  // Run reverse-mode accumulation from `root` (must be 1x1). Seeds the root
  // gradient with 1 and walks recorded nodes newest-to-oldest.
  void backward(const Var& root);

  // Drop all nodes, keeping the arena. Handles into this tape dangle.
  void clear();

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

  // --- op-library interface (autograd/ops.cpp) --------------------------
  [[nodiscard]] const Node& node(int index) const {
    return nodes_[static_cast<std::size_t>(index)];
  }
  // Records `n` with a zeroed arena gradient. Unless `n.val` already
  // references a value, the node also gets arena value storage, which the
  // caller fills through the returned pointer (else that is null).
  struct Recorded {
    Var var;
    double* val;
  };
  Recorded record(Node n);
  // Row-major transpose of `n`'s value, valid until the next call. For a
  // referenced (parameter()) value it is the copy the tape keeps for its
  // life; for an arena value it is a fresh transpose in the scratch
  // buffer.
  const double* transposed_value(const Node& n);

 private:
  double* allocate(std::size_t count);
  // input()/constant(): a leaf of `op` holding an arena copy of `value`.
  Var leaf_copy(const la::Mat& value, Op op);

  struct Chunk {
    std::unique_ptr<double[]> data;
    std::size_t size = 0;
  };
  std::vector<Node> nodes_;
  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;  // chunk the bump pointer is in
  std::size_t used_ = 0;   // doubles used in chunks_[chunk_]
  std::vector<double> scratch_;
  // The kept transposes of referenced values (a few dozen at most).
  struct Transpose {
    const double* value;
    int rows;
    int cols;
    std::vector<double> t;
  };
  std::vector<Transpose> transposes_;
};

inline MatView Var::value() const {
  const Node& n = tape_->node(index_);
  return {n.val, n.rows, n.cols};
}
inline MatView Var::grad() const {
  const Node& n = tape_->node(index_);
  return {n.grad, n.rows, n.cols};
}
inline int Var::rows() const { return tape_->node(index_).rows; }
inline int Var::cols() const { return tape_->node(index_).cols; }

}  // namespace gcnrl::ag
