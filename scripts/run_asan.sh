#!/usr/bin/env bash
# Build the memory-sensitive tests under AddressSanitizer and run them.
#
# Covers the surfaces that juggle raw buffers and exception-driven
# unwinding: the batched ERI kernel and its Boys table, the
# fault-injection/retry/checkpoint suite (tasks throw mid-kernel and
# must not leak or double-free scratch), the scheduler and thread-pool
# stack, and the JSON parser the checkpoint files go through. A heap
# error anywhere in that stack fails this script.
#
# Usage: scripts/run_asan.sh [build-dir]   (default: build-asan)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DMTHFX_SANITIZE=address
cmake --build "$BUILD_DIR" -j --target test_boys test_eri test_fault \
  test_parallel test_obs test_hfx test_property_hfx test_durability \
  test_property_grad test_serve test_scaling test_property_scaling \
  test_dft test_spin_dft test_chem test_scf

export ASAN_OPTIONS="halt_on_error=1:detect_leaks=1:strict_string_checks=1"

# ERI kernel: the Boys table reads on both sides of the batched seam,
# the batched kernel's per-thread sort records, class-skeleton entry
# offsets, live-entry term lists, cached bra packing, ket-folded panel
# and SoA output accumulator, all indexed through raw offsets.
"$BUILD_DIR"/tests/test_boys
"$BUILD_DIR"/tests/test_eri
"$BUILD_DIR"/tests/test_fault
"$BUILD_DIR"/tests/test_parallel
"$BUILD_DIR"/tests/test_obs
# Scheduler-facing subset of test_hfx (the integral-heavy numerics are
# slow under ASan and exercised by the plain build anyway), plus the
# stream-group builds: per-thread group state and the slices digested
# out of the grow-only block buffers.
"$BUILD_DIR"/tests/test_hfx --gtest_filter='SchedulerExactness*:Schedulers.*:AllSchedules/*:FockBuilder.SmallBuildRunsAsOneStream:FockBuilder.TaskCostsCoverKernelTime'
# Small-iteration property subset: random shapes drive allocation-heavy
# paths (tensor buffers, shrinker copies) through ASan without the full
# 50-case budget.
MTHFX_PROPERTY_ITERS=3 "$BUILD_DIR"/tests/test_property_hfx \
  --gtest_filter='PropertyHarness.*:PropertyHfx.JkHermitianAndTraceIdentities:PropertyHfx.SerialReduceMatchesDirectSum'
# Analytic-gradient surface: the ERI-derivative scratch blocks and XC
# grid-gradient buffers are the newest raw-buffer territory; a couple of
# random molecules walk all four functionals through them.
MTHFX_PROPERTY_ITERS=2 "$BUILD_DIR"/tests/test_property_grad \
  --gtest_filter='PropertyGrad.NetForceVanishes:PropertyGrad.ForcesAreTranslationInvariant'
# Durable-engine buffer surface: journal frame parsing/replay of corrupt
# and truncated records, and the disk store's entry read/validate/evict
# path — both chew raw file bytes and must not over-read on garbage.
"$BUILD_DIR"/tests/test_durability --gtest_filter='Journal.*:DiskStore.*'
# Service protocol codec: the line reader's frame buffering over raw
# recv bytes and the request parser on malformed/oversized input — the
# surface an untrusted client feeds directly.
"$BUILD_DIR"/tests/test_serve --gtest_filter='Protocol.*'
# Sparsity pipeline: the cell-list build (bin indexing, candidate
# gathers over raw offset arrays), blocked J/K builds at 1-8 threads
# whose per-thread stamp-dedupe/link-walk buffers and CSR block scatters
# are the newest raw-index territory, and the screened XC table against
# its dense oracle.
"$BUILD_DIR"/tests/test_scaling \
  --gtest_filter='PairCulling.*:BlockedBuild.*:SparsityOptions.*:XcScreening.*'
MTHFX_PROPERTY_ITERS=3 "$BUILD_DIR"/tests/test_property_scaling \
  --gtest_filter='PropertyScaling.CellListCandidatesCoverSurvivingPairs:PropertyScaling.CulledPairListMatchesDenseSweep'
# XC grid path: the integrator's CSR AO rows (raw offsets into the value
# arrays and the per-row shell list), the dense per-run P and V blocks,
# the per-shell AO Hessian scratch the gradient writes through raw
# pointers, and the per-chunk partials recycled across threads.
"$BUILD_DIR"/tests/test_dft --gtest_filter='XcIntegrator.*:XcThreads.*'
"$BUILD_DIR"/tests/test_spin_dft \
  --gtest_filter='Uks.Pbe0EnergyBitIdenticalAcrossThreadCounts'
"$BUILD_DIR"/tests/test_chem --gtest_filter='Basis.*'
# SAD guess: the atomic solves, the signed-permutation AO maps of the
# spherical average and the block scatter into the molecular AO order.
"$BUILD_DIR"/tests/test_scf \
  --gtest_filter='Guess.*:-Guess.SadAndCoreGuessReachTheSameState'

echo "ASan pass clean."
