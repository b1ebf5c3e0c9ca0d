#!/usr/bin/env bash
# Tiered test runner — one entry point for every ctest label.
#
#   scripts/run_tests.sh [tier]  [build-dir]
#
# Tiers:
#   tier1    (default) fast example-based suites — the PR gate
#   fault    fault-injection / recovery / checkpoint suite
#   engine   screening-engine suite (queue/cache/scheduler/campaign)
#   durability  journal / disk-store / deadline / crash-recovery suite
#            (forks and SIGKILLs a campaign — slower than tier1)
#   serve    screening-service suite: line protocol, multi-tenant TCP
#            server, fair-share ratios, SIGKILL/resume with live clients
#   property seeded property/differential suites at MTHFX_PROPERTY_ITERS
#            (default 50) iterations
#   gradient analytic-gradient suites: deterministic unit + golden
#            checks and the seeded force-property suite
#   scaling  sparsity-pipeline suites (culled pair lists, blocked J/K,
#            purification SCF) plus the A10 bench smoke
#   bench    the repository benchmark at toy size (bench/suite/run.py
#            --smoke): all four workloads and their correctness gates —
#            reference energies, one SCF per MD step, served energies
#            bit-identical to app::run_structured. No timing assertions.
#   nightly  the property executables at high iteration count
#            (MTHFX_PROPERTY_NIGHTLY_ITERS, default 400)
#   all      everything except nightly (what a bare `ctest` runs)
#
# Reproducing a property failure: the failing test prints a line like
#   MTHFX_PROPERTY_SEED=<seed> ctest --test-dir build -R '<name>' ...
# which replays exactly that generated case (see docs/validation.md).

set -euo pipefail
cd "$(dirname "$0")/.."

TIER="${1:-tier1}"
BUILD_DIR="${2:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j

case "$TIER" in
  tier1|fault|engine|durability|serve|property|gradient|scaling)
    ctest --test-dir "$BUILD_DIR" -L "$TIER" --output-on-failure -j "$(nproc)"
    if [ "$TIER" = scaling ]; then
      # A10 smoke: the two smallest PC boxes through the full sparsity
      # pipeline (culled pairs -> blocked J/K -> purification), checking
      # structural contracts only — the cost-exponent fit needs the full
      # sweep (`bench_a10_scaling` without --smoke).
      "$BUILD_DIR"/bench/bench_a10_scaling --smoke
    fi
    if [ "$TIER" = tier1 ]; then
      # Perf smoke: small-iteration A7 kernel sweep. Counts and the
      # batched-vs-oracle cross-check only — no timing assertions, so
      # it cannot flake on a loaded machine.
      "$BUILD_DIR"/bench/bench_a7_eri_kernel --smoke
      # A8 smoke: a 2-step PBE0 trajectory checking the accelerated
      # MD surface's one-solve-per-step counters — again counts only,
      # no timing assertions.
      "$BUILD_DIR"/bench/bench_a8_bomd --smoke
      # A9 smoke: a ~120-job service campaign over real TCP with one
      # SIGKILL + resume in the middle — completion/replay/bit-identity
      # accounting only, no timing assertions.
      "$BUILD_DIR"/bench/bench_a9_service --smoke
      # A10 smoke: the sparsity pipeline end-to-end on the two smallest
      # PC boxes — structural contracts (pairs survive, nnz in range,
      # finite energy), no timing assertions.
      "$BUILD_DIR"/bench/bench_a10_scaling --smoke
    fi
    ;;
  bench)
    python3 bench/suite/run.py --smoke
    ;;
  nightly)
    # Nightly tests are registered under the "nightly" ctest
    # configuration so they never run by accident.
    ctest --test-dir "$BUILD_DIR" -C nightly -L nightly --output-on-failure
    ;;
  all)
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
    ;;
  *)
    echo "unknown tier: $TIER (want tier1|fault|engine|durability|serve|property|gradient|scaling|bench|nightly|all)" >&2
    exit 2
    ;;
esac

echo "run_tests.sh: tier '$TIER' clean."
