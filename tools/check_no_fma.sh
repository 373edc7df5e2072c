#!/usr/bin/env bash
# FMA lint: the built library must contain no fused multiply-add.
#
#   tools/check_no_fma.sh [LIB]   (default: build/src/libgcnrl.a)
#
# The kernels' op-order contracts (la/matrix.hpp, la/cholesky.hpp)
# promise one IEEE multiply and one IEEE add per term; an FMA rounds once
# instead of twice and changes the bits. The library is built with
# -ffp-contract=off (src/CMakeLists.txt) so the compiler never fuses on
# its own, even in code built for a target that has FMA. This check
# disassembles every object in LIB and fails on any x86 FMA instruction
# (vfmadd*, vfnmadd*, vfmsub*, vfnmsub*, which covers vfmaddsub* and
# vfmsubadd*), printing the function that holds it. Exit 0: clean; 1:
# FMA found; 2: usage or tool error.
set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
LIB="${1:-$ROOT/build/src/libgcnrl.a}"

if [ ! -f "$LIB" ]; then
  echo "check_no_fma: no library at $LIB (build first)" >&2
  exit 2
fi
if ! command -v objdump > /dev/null; then
  echo "check_no_fma: objdump not found" >&2
  exit 2
fi

DIS="$(objdump -d --no-show-raw-insn "$LIB")" || {
  echo "check_no_fma: objdump failed on $LIB" >&2
  exit 2
}
# Each hit is printed with the symbol that contains it.
HITS="$(printf '%s\n' "$DIS" | awk '
  /^[0-9a-f]+ <.*>:$/ { fn = substr($2, 1, length($2) - 1) }
  /\tvf(n)?m(add|sub)/ { print fn ":" $0 }')"
if [ -n "$HITS" ]; then
  printf '%s\n' "$HITS"
  echo "check_no_fma: fused multiply-adds in $LIB" >&2
  exit 1
fi
echo "check_no_fma: no FMA instructions in $LIB"
