// Short double vectors for the hand-blocked loops of the GP layer
// (la::Cholesky::solve_lower_in_place, GaussianProcess::predict_batch)
// and of the matmul kernel (la::matmul_kernel).
//
// GCC/Clang vector extensions. Double2 is one SSE2 register on baseline
// x86-64 and one NEON register on AArch64. Double4 (x86-64 only) is one
// AVX2 register; its helpers carry target("avx2"), so they may only be
// called from functions built for AVX2, which run only on hosts that
// have it (la::matmul_kernel picks its version at load time). Every
// operation is a lane-wise IEEE double operation, so a blocked loop
// gives each lane exactly the bits the scalar loop gives it, at any
// width. That holds because the library is built with
// -ffp-contract=off: no multiply and add are ever fused into one FMA,
// whatever the target (tools/check_no_fma.sh checks the built library).
// GCC does not keep 8-element local arrays in registers across a loop
// (it scalarizes them), hence the explicit types.
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

#if defined(__x86_64__)

using Double4 = double __attribute__((vector_size(4 * sizeof(double))));

[[gnu::target("avx2"), gnu::always_inline]] inline Double4 load4(
    const double* p) {
  Double4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

[[gnu::target("avx2"), gnu::always_inline]] inline void store4(double* p,
                                                              Double4 v) {
  std::memcpy(p, &v, sizeof v);
}

[[gnu::target("avx2"), gnu::always_inline]] inline Double4 splat4(double s) {
  return Double4{s, s, s, s};
}

#endif

}  // namespace gcnrl::la
