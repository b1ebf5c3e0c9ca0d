#pragma once

// Parallel Hartree–Fock exact-exchange (HFX) builder — the paper's core
// contribution. The quartet list is flattened into cost-estimated tasks
// (tasks.hpp), screened by Schwarz and density bounds (screening.hpp) and
// executed over threads with a pluggable scheduler. The tasks are cut into
// fixed chunks of whole bra rows; each chunk digests its tasks, in order,
// into its own J/K partial, and the partials merge along a fixed binary
// tree over chunk indices as siblings finish (the paper's thread-private
// partial blocks reduced along a tree; the BG/Q simulator models that
// reduction at scale). The schedule only decides which thread runs which
// chunk, so J and K are bit-identical for any thread count and schedule.
// Each builder owns one thread pool for all its builds.

#include <atomic>
#include <cstddef>
#include <optional>
#include <vector>

#include "chem/basis.hpp"
#include "fault/injector.hpp"
#include "ints/eri.hpp"
#include "hfx/screening.hpp"
#include "hfx/shell_pairs.hpp"
#include "hfx/tasks.hpp"
#include "linalg/block_sparse.hpp"
#include "linalg/matrix.hpp"
#include "obs/json.hpp"
#include "parallel/thread_pool.hpp"

namespace mthfx::hfx {

/// How tasks are mapped to threads. kDynamicBag is the paper's scheme;
/// kStaticBlock/kStaticCyclic are the "directly comparable" baselines; the
/// work-stealing mode plays the cross-node balancing role.
enum class HfxSchedule {
  kDynamicBag,
  kStaticBlock,
  kStaticCyclic,
  kWorkStealing,
};

/// Ket source of J/K builds. Every builder forms its pair list the same
/// way (ShellPairList::culled), so the mode changes cost, never results:
/// kDense sweeps each task's contiguous ket range, kBlocked enumerates
/// kets through the density-linked (LinK-style) walk and always runs
/// whole bra rows. scf::rhf also hands blocked systems to sparse_rhf,
/// whose density step is purification.
/// kAuto selects kBlocked once the basis crosses auto_nbf_threshold, so
/// small systems keep the range sweep.
enum class SparsityMode { kAuto, kDense, kBlocked };

struct SparsityOptions {
  SparsityMode mode = SparsityMode::kAuto;
  /// kAuto switches to the density-linked walk above this many
  /// basis functions (large electrolyte boxes; every preexisting suite
  /// stays far below it).
  std::size_t auto_nbf_threshold = 768;
  /// Block-matrix drop tolerance used by the sparse SCF side when
  /// re-blocking J/K/density products.
  double drop_tol = 1e-12;
  /// Target block size (basis functions) for blocked partitions —
  /// roughly one solvent molecule per block.
  std::size_t block_nbf = 48;

  bool blocked(std::size_t nbf) const {
    return mode == SparsityMode::kBlocked ||
           (mode == SparsityMode::kAuto && nbf > auto_nbf_threshold);
  }
};

struct HfxOptions {
  double eps_schwarz = 1e-10;     ///< integral-neglect threshold
  /// Per-element magnitude cutoff inside the digestion kernel: computed
  /// integrals below this skip the J/K updates. 0 derives it from the
  /// screening threshold (eps_schwarz * kContributionCutoffScale), so
  /// tightening eps_schwarz tightens the whole accuracy chain.
  double eps_contribution = 0.0;
  bool density_screening = true;  ///< stage-two |P|-weighted screening
  HfxSchedule schedule = HfxSchedule::kDynamicBag;
  std::size_t num_threads = 0;    ///< 0 selects hardware concurrency
  /// Task granularity. 0 runs one task per bra row, which keeps the
  /// batched kernel's batches full. A positive value splits dense rows
  /// into tasks of about that estimated cost (1 is the finest grain, used
  /// to calibrate the BG/Q projections). Culled builders ignore it: they
  /// always run rows, the unit the density-linked walk enumerates.
  double target_task_cost = 0.0;
  bool record_task_costs = false; ///< collect per-task timings (for bgq sim)

  /// Seeded fault injection (off by default: all rates zero). max_retries
  /// also bounds retries of *genuine* task failures, with or without
  /// injection.
  fault::FaultOptions fault;
  /// Transactional task commit: save the chunk's J/K partial, digest into
  /// it, sweep it with std::isfinite, and restore the saved copy when the
  /// task threw or left a non-finite value — a poisoned (NaN/Inf) task is
  /// retried instead of corrupting K, and commits what a clean run would.
  /// Costs one extra nao^2 copy per task and matrix, so one per bra row
  /// at the default granularity.
  bool validate_tasks = false;

  /// Ket source / blocked-build regime (see SparsityOptions). The
  /// default (kAuto with a high threshold) keeps every small system on
  /// the range sweep.
  SparsityOptions sparsity;

  /// Derived default for eps_contribution: 1e-6 * eps_schwarz reproduces
  /// the historical 1e-16 cutoff at the default eps_schwarz of 1e-10.
  static constexpr double kContributionCutoffScale = 1e-6;
  double contribution_cutoff() const {
    return eps_contribution > 0.0 ? eps_contribution
                                  : eps_schwarz * kContributionCutoffScale;
  }
};

struct TaskCostRecord {
  std::uint32_t task = 0;
  double est_cost = 0.0;
  double seconds = 0.0;
};

/// What the resilience layer did during one build (all zero on a clean,
/// injection-free run).
struct FaultStats {
  std::uint64_t injected = 0;             ///< faults of any kind injected
  std::uint64_t injected_failures = 0;    ///< tasks made to throw
  std::uint64_t injected_stalls = 0;      ///< tasks made to sleep
  std::uint64_t injected_corruptions = 0; ///< tasks NaN-poisoned
  std::uint64_t retries = 0;              ///< re-executions after a failure
  std::uint64_t permanent_failures = 0;   ///< retry budget exhausted
};

struct HfxStats {
  ScreeningStats screening;
  FaultStats fault;
  std::size_t num_pairs = 0;
  std::size_t num_pairs_unscreened = 0;
  std::size_t num_tasks = 0;
  double wall_seconds = 0.0;
  double reduce_seconds = 0.0;               ///< chunk-partial merges, summed
  std::vector<double> thread_busy_seconds;   ///< per-thread kernel time
  std::vector<TaskCostRecord> task_costs;    ///< filled if record_task_costs
  obs::Json metrics;  ///< full registry snapshot (counters + timers)

  /// Busiest / mean thread busy time (1.0 when idle or single-threaded).
  double imbalance() const;
};

/// Machine-readable record of one build (screening, timing, imbalance,
/// scheduler metrics) for the BENCH_*.json emitters.
obs::Json to_json(const HfxStats& stats);

struct ExchangeResult {
  linalg::Matrix k;  ///< K_{mu nu} = sum_{lam sig} P_{lam sig} (mu lam|nu sig)
  HfxStats stats;
};

struct JkResult {
  linalg::Matrix j;  ///< J_{mu nu} = sum_{lam sig} P_{lam sig} (mu nu|lam sig)
  linalg::Matrix k;
  HfxStats stats;
};

class FockBuilder {
 public:
  /// Forms the significant pair list (ShellPairList::culled: Schwarz
  /// bounds on cell-list candidates from the batched kernel), the task
  /// list and the pair expansions, and starts the pool of
  /// options.num_threads threads. The basis must outlive the builder.
  FockBuilder(const chem::BasisSet& basis, HfxOptions options = {});

  /// Exchange-only build (the paper's benchmarked kernel).
  ExchangeResult exchange(const linalg::Matrix& density) const;

  /// Combined Coulomb + exchange build for SCF iterations. Both matrices
  /// are digested from one pass over the unique quartets.
  JkResult coulomb_exchange(const linalg::Matrix& density) const;

  /// The same builds from a blocked density, which is densified first.
  /// Every entry point runs one task-bag build; what changes with the
  /// builder is the ket source. A blocked builder (blocked()) enumerates
  /// each bra row through density-linked ket lists (LinK-style): only
  /// kets reachable through a shell-block density element large enough
  /// to pass the combined Schwarz + density bound are visited, then every
  /// candidate is re-checked with exactly the range source's tests in
  /// ascending ket order. A dense builder sweeps contiguous ket ranges.
  /// On one pair list both sources compute the same quartets in the same
  /// order, so the source changes cost, never results. The walk's cost scales with
  /// surviving quartets, not pairs², which is what makes exchange
  /// near-linear on large insulating boxes. Threads, fault injection and
  /// validate_tasks apply to every build.
  ExchangeResult exchange_blocked(const linalg::BlockSparseMatrix& density) const;
  JkResult coulomb_exchange_blocked(const linalg::BlockSparseMatrix& density) const;

  /// Re-target the builder at a new geometry of the *same* molecule/basis
  /// (identical shell structure, possibly moved centers). The pair list
  /// is re-culled; shell-pair Hermite tables are re-expanded only for
  /// pairs with a bitwise-moved endpoint, and every kept pair touching
  /// only unmoved atoms hands its table over. This is the cross-step
  /// reuse lever for MD surfaces and finite-difference sweeps.
  /// Throws std::invalid_argument if the shell structure differs. The new
  /// basis must outlive the builder. The pool is kept.
  void rebind(const chem::BasisSet& basis);

  /// Pairs carried over unchanged by the most recent rebind (0 before
  /// any rebind) — observability for the reuse tests and the MD bench.
  std::size_t last_rebind_reused_pairs() const { return rebind_reused_; }

  const chem::BasisSet& basis() const { return *basis_; }
  const ShellPairList& pairs() const { return pairs_; }
  const std::vector<QuartetTask>& tasks() const { return tasks_; }
  const HfxOptions& options() const { return options_; }

  /// The pool every build runs on, alive as long as the builder; the
  /// SCF's XC runs on it too.
  parallel::ThreadPool& pool() const { return pool_; }

  /// True when sparsity is engaged (SparsityOptions::blocked): kets come
  /// from the density-linked walk and tasks are whole bra rows.
  bool blocked() const { return blocked_; }
  const PairCullStats& cull_stats() const { return cull_stats_; }

  /// Pair indices (into pairs()) containing each shell, descending q —
  /// the per-shell link lists the density-linked walk follows.
  const std::vector<std::vector<std::uint32_t>>& pairs_by_shell() const {
    return pairs_by_shell_;
  }

 private:
  JkResult build(const linalg::Matrix& density, bool want_coulomb) const;
  void index_pairs_by_shell();

  const chem::BasisSet* basis_;
  HfxOptions options_;
  mutable parallel::ThreadPool pool_;
  bool blocked_ = false;
  PairCullStats cull_stats_;
  ShellPairList pairs_;
  std::vector<std::vector<std::uint32_t>> pairs_by_shell_;
  std::vector<QuartetTask> tasks_;
  /// Chunk ends over tasks_: the fixed units whose J/K partials merge.
  std::vector<std::size_t> chunk_end_;
  std::size_t rebind_reused_ = 0;
  /// Precomputed Hermite expansions, aligned with pairs_ — computed once
  /// and amortized over every quartet the pair participates in.
  std::vector<ints::ShellPairHermite> pair_hermites_;
  /// Fault-injection state (engaged only when options_.fault has nonzero
  /// rates). The epoch salts fault sites so each build of an SCF sequence
  /// draws an independent — but still seed-deterministic — fault pattern.
  mutable std::optional<fault::Injector> injector_;
  mutable std::atomic<std::uint64_t> build_epoch_{0};
};

}  // namespace mthfx::hfx
