// Two-lane double vectors for the hand-blocked loops of the GP layer
// (la::Cholesky::solve_lower_in_place, GaussianProcess::predict_batch)
// and of the matmul kernel (la::matmul_kernel).
//
// A GCC/Clang vector extension: one SSE2 register on baseline x86-64, one
// NEON register on AArch64. Every operation is a lane-wise IEEE double
// operation, so a blocked loop gives each lane exactly the bits the
// scalar loop gives it. GCC does not keep 8-element local arrays in
// registers across a loop (it scalarizes them), hence the explicit type.
#pragma once

#include <cstring>

namespace gcnrl::la {

using Double2 = double __attribute__((vector_size(2 * sizeof(double))));

inline Double2 load2(const double* p) {
  Double2 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store2(double* p, Double2 v) { std::memcpy(p, &v, sizeof v); }

inline Double2 splat2(double s) { return Double2{s, s}; }

}  // namespace gcnrl::la
