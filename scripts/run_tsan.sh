#!/usr/bin/env bash
# Build the threading/scheduler tests under ThreadSanitizer and run them.
#
# Covers the concurrency-sensitive surface: the thread pool (including two
# callers overlapping their regions on one pool), the work-stealing
# scheduler (both steal paths and their stats counters), the sibling
# merge of chunk partials (TreeReduce.*, CutChunks.* and RunChunks.* ride
# inside the full test_parallel run), the obs registry's lock-free
# per-thread slots, the HFX scheduler exactness tests, the XC
# integrator's point chunks, the two-electron and KS gradients' row
# chunks, the SAD guess's per-process atomic-density cache, and the
# screening engine's one job
# queue (per-tenant backlogs, fair-share dispatch) + multi-job scheduler. A data race anywhere in that stack fails this
# script.
#
# Usage: scripts/run_tsan.sh [build-dir]   (default: build-tsan)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . -DMTHFX_SANITIZE=thread
cmake --build "$BUILD_DIR" -j --target test_parallel test_obs test_hfx \
  test_fault test_engine test_durability test_serve test_differential \
  test_property_scaling test_dft test_spin_dft test_gradient test_scf

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

"$BUILD_DIR"/tests/test_parallel
"$BUILD_DIR"/tests/test_obs
# Scheduler-facing subset of test_hfx: exactly-once execution under
# contention plus steal-stat consistency, and small J/K builds per
# schedule at 1 to 8 threads, whose chunk partials merge as siblings
# finish on different threads and whose stream groups live in per-thread
# state. The rest of the integral-heavy numerics is slow under TSan and
# thread-free anyway.
"$BUILD_DIR"/tests/test_hfx --gtest_filter='SchedulerExactness*:Schedulers.*:AllSchedules/*:FockBuilder.AllSchedulesAndThreadCountsAgreeTightly:FockBuilder.SmallBuildRunsAsOneStream:FockBuilder.TaskCostsCoverKernelTime'
# XC point chunks: integrate, integrate_spin and gradient at 1 to 8
# threads, each chunk's partial merged as siblings finish, and RKS/UKS
# PBE0 solves whose J/K builds and XC share the builder's one pool.
"$BUILD_DIR"/tests/test_dft --gtest_filter='XcThreads.*'
"$BUILD_DIR"/tests/test_spin_dft \
  --gtest_filter='Uks.Pbe0EnergyBitIdenticalAcrossThreadCounts'
# Gradient row chunks at 1 to 8 threads: the two-electron term on its own
# pool, and a PBE0 solve + KS gradient on one bound builder whose pool
# runs J/K, XC and the XC gradient.
"$BUILD_DIR"/tests/test_gradient --gtest_filter='Gradient.*BitIdenticalAcrossThreadCounts'
# SAD atomic-density cache: four threads fill cold entries at once, each
# getting the serial result bit for bit.
"$BUILD_DIR"/tests/test_scf --gtest_filter='Guess.SadCacheIsThreadSafe'
# Retry/exactly-once-commit paths of the fault suite: concurrent task
# failure, in-place retry, and attempt accounting across every schedule,
# plus retried and poisoned tasks of a dense builder and of a culled
# builder's density-linked walk, and of the task that opens a stream
# group.
"$BUILD_DIR"/tests/test_fault \
  --gtest_filter='AllSchedules/*:Schedulers.*:FockBuilder.FaultInjectedExchangeMatchesCleanRun:FockBuilder.CorruptionWithoutValidationPoisonsOutput:FockBuilder.FaultOnFirstTaskOfStreamGroupMatchesCleanRun'
# Screening-engine concurrency surface: blocking queue handoff, worker
# pool vs. submitter races, result-cache sharing, per-job fault domains,
# and the fair-share tests, where a pop blocked at a tenant's in-flight
# cap is released by a completion reported from another thread.
"$BUILD_DIR"/tests/test_engine --gtest_filter='JobQueue.*:JobScheduler.*:FairShare.*'
# Durable-engine concurrency surface: the watchdog thread cancelling
# in-flight attempts it races with workers registering/unregistering
# them, journal appends from submitter + workers at once, the disk
# store's LRU under concurrent lookup/insert, the scheduler's job lookup
# (status/wait against a worker's publish), and JobScheduler::resume
# adopting and resubmitting while a worker runs (the SIGKILL drill
# forks and is exercised unsanitized).
"$BUILD_DIR"/tests/test_durability \
  --gtest_filter='Scheduler.*:DiskStore.*:Backoff.*:CrashRecovery.ResumeOfCompletedCampaignRecomputesNothing'
# Service concurrency surface: workers dispatching from and completing
# into the one queue while client threads submit and cancel into it,
# in-flight caps released by completions, connection threads reading
# the scheduler's job lookup (status, blocking result) while a worker
# publishes the record, JobScheduler::resume resubmitting journaled
# jobs onto a started worker pool, and many client connections racing
# one server (the crash drills fork and are exercised unsanitized).
"$BUILD_DIR"/tests/test_serve \
  --gtest_filter='Serve.WeightedFairShareRatioUnderSaturation:Serve.ConcurrentClientsRaceCleanly:Serve.SubmitResultBitIdenticalToDirectRun:Serve.QuotaRejectReasonFormatIsPinned:Serve.ResumeOverFullBacklogKeepsEveryJobAndFreshIdsAbove:Serve.MidJobDisconnectDoesNotLoseTheJob:Serve.UnknownJobIdsAreErrors'
# Small-iteration differential subset: randomized schedule x thread-count
# builds race the bag/steal protocols on fresh task shapes each case,
# and every build merges its chunk partials across the pool's threads.
MTHFX_PROPERTY_ITERS=3 "$BUILD_DIR"/tests/test_differential \
  --gtest_filter='Differential.ThreadCountIsInvisibleAcrossSchedules:Differential.ScreenedBuildMatchesBruteForceAcrossSchedules'
# Sparsity pipeline: cell-list candidate enumeration, and the blocked
# J/K replay, which runs the density-linked walk at a drawn thread count
# with per-thread walk scratch, counter slots and open K/J partials.
MTHFX_PROPERTY_ITERS=3 "$BUILD_DIR"/tests/test_property_scaling \
  --gtest_filter='PropertyScaling.CellListCandidatesCoverSurvivingPairs:PropertyScaling.BlockedJkReplaysDenseBuilder'

echo "TSan pass clean."
