#!/usr/bin/env bash
# Build the arithmetic-heavy tests under UndefinedBehaviorSanitizer and
# run them.
#
# Covers the surfaces where the SIMD batched ERI path bends the rules
# hardest: vector-extension loads/stores through memcpy, exponent-bit
# manipulation in v8_exp, signed shift packing in the structure keys,
# and the pointer arithmetic of the sparse Hermite entry walks. Any
# UB diagnostic fails this script (halt_on_error below).
#
# Usage: scripts/run_ubsan.sh [build-dir]   (default: build-ubsan)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ubsan}"

cmake -B "$BUILD_DIR" -S . -DMTHFX_SANITIZE=undefined
cmake --build "$BUILD_DIR" -j --target test_boys test_eri test_hfx \
  test_differential test_gradient test_property_grad test_scaling \
  bench_a7_eri_kernel

export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

"$BUILD_DIR"/tests/test_boys
"$BUILD_DIR"/tests/test_eri
# Kernel-facing subset of test_hfx (SCF convergence loops are slow under
# UBSan and add no new arithmetic surface).
"$BUILD_DIR"/tests/test_hfx --gtest_filter='Hfx.*:DigestQuartet*'
# Small-iteration differential subset: randomized quartet streams drive
# the batched kernel's ragged-tail and lane-masking paths.
MTHFX_PROPERTY_ITERS=3 "$BUILD_DIR"/tests/test_differential
# Derivative-ERI index arithmetic: the gradient unit suite plus a
# couple of random force-property cases run the derivative pair
# expansions (E tables to la+1, lb+1) and the quartet kernel's point and
# panel walks (Coulomb tensor of order L+1) end to end. The f-shell
# capacity case is Differential.EriGradientMatchesReference above, whose
# s-f shell set drives f x f pairs through the kernel.
"$BUILD_DIR"/tests/test_gradient
MTHFX_PROPERTY_ITERS=2 "$BUILD_DIR"/tests/test_property_grad \
  --gtest_filter='PropertyGrad.NetForceVanishes'
# Pair formation: the cell-list candidate walk and the per-row batched
# Schwarz diagonals, against the brute-force sweep.
"$BUILD_DIR"/tests/test_scaling --gtest_filter='PairCulling.*'
# The A7 smoke sweeps every shell class through the batched kernel and
# the dense oracle in one process — the densest UB net over the
# micro-kernel itself.
"$BUILD_DIR"/bench/bench_a7_eri_kernel --smoke

echo "UBSan pass clean."
