#include "autograd/tape.hpp"

#include <algorithm>
#include <cstring>

namespace gcnrl::ag {
namespace {

// First chunk of 128 KiB; each later one doubles, so a graph of any size
// needs O(log) chunks (two hold one Two-TIA critic sample).
constexpr std::size_t kFirstChunk = std::size_t{1} << 14;

}  // namespace

MatView::operator la::Mat() const {
  la::Mat m(rows_, cols_);
  std::copy(data_, data_ + size(), m.data());
  return m;
}

double* Tape::allocate(std::size_t count) {
  for (; chunk_ < chunks_.size(); ++chunk_, used_ = 0) {
    Chunk& c = chunks_[chunk_];
    if (c.size - used_ >= count) {
      double* p = c.data.get() + used_;
      used_ += count;
      return p;
    }
  }
  const std::size_t size = std::max(
      count, chunks_.empty() ? kFirstChunk : 2 * chunks_.back().size);
  chunks_.push_back({std::make_unique_for_overwrite<double[]>(size), size});
  chunk_ = chunks_.size() - 1;
  used_ = count;
  return chunks_.back().data.get();
}

Tape::Recorded Tape::record(Node n) {
  const std::size_t size = n.size();
  double* val = nullptr;
  if (n.val == nullptr) {
    val = allocate(2 * size);
    n.val = val;
    n.grad = val + size;
  } else {
    n.grad = allocate(size);
  }
  std::fill_n(n.grad, size, 0.0);
  nodes_.push_back(n);
  return {Var(this, static_cast<int>(nodes_.size()) - 1), val};
}

namespace {

// dst (cols x rows) = srcᵀ, src rows x cols, both row-major.
void transpose_into(const double* src, int rows, int cols, double* dst) {
  for (int p = 0; p < rows; ++p) {
    for (int q = 0; q < cols; ++q) {
      dst[static_cast<std::size_t>(q) * rows + p] =
          src[static_cast<std::size_t>(p) * cols + q];
    }
  }
}

// Whether `t` still holds srcᵀ, bit for bit.
[[maybe_unused]] bool is_transpose(const std::vector<double>& t,
                                   const double* src, int rows, int cols) {
  std::vector<double> now(t.size());
  transpose_into(src, rows, cols, now.data());
  return std::memcmp(now.data(), t.data(), t.size() * sizeof(double)) == 0;
}

}  // namespace

const double* Tape::transposed_value(const Node& n) {
  if (!n.referenced) {
    if (scratch_.size() < n.size()) scratch_.resize(n.size());
    transpose_into(n.val, n.rows, n.cols, scratch_.data());
    return scratch_.data();
  }
  for (const Transpose& e : transposes_) {
    if (e.value == n.val && e.rows == n.rows && e.cols == n.cols) {
      assert(is_transpose(e.t, n.val, n.rows, n.cols) &&
             "a parameter() value changed while its tape lives");
      return e.t.data();
    }
  }
  Transpose& e =
      transposes_.emplace_back(Transpose{n.val, n.rows, n.cols, {}});
  e.t.resize(n.size());
  transpose_into(n.val, n.rows, n.cols, e.t.data());
  return e.t.data();
}

Var Tape::leaf_copy(const la::Mat& value, Op op) {
  Node n;
  n.op = op;
  n.requires_grad = op == Op::kInput;
  n.rows = value.rows();
  n.cols = value.cols();
  const Recorded r = record(n);
  std::copy(value.data(), value.data() + value.size(), r.val);
  return r.var;
}

Var Tape::input(const la::Mat& value) { return leaf_copy(value, Op::kInput); }

Var Tape::constant(const la::Mat& value) {
  return leaf_copy(value, Op::kConstant);
}

Var Tape::parameter(const la::Mat& value, la::Mat* grad) {
  assert(grad == nullptr || grad->same_shape(value));
  Node n;
  n.op = grad != nullptr ? Op::kParameter : Op::kConstant;
  n.requires_grad = grad != nullptr;
  n.rows = value.rows();
  n.cols = value.cols();
  n.sink = grad;
  n.referenced = true;
  n.val = value.data();
  return record(n).var;
}

void Tape::clear() {
  nodes_.clear();
  chunk_ = 0;
  used_ = 0;
}

}  // namespace gcnrl::ag
