#pragma once

// Quartet task generation: the paper's flattened "bag of tasks".
//
// A task is one bra shell-pair combined with a contiguous range of ket
// shell-pairs (ket list position <= bra list position, which realizes the
// 8-fold permutational symmetry at pair level). By default a task is a
// whole bra row; a positive target cost splits rows into finer tasks,
// down to one ket each. The per-task cost estimate drives both the host
// execution order and the BG/Q machine simulator.

#include <cstdint>
#include <vector>

#include "hfx/shell_pairs.hpp"

namespace mthfx::hfx {

struct QuartetTask {
  std::uint32_t bra = 0;        ///< index into the ShellPairList
  std::uint32_t ket_begin = 0;  ///< ket range [ket_begin, ket_end)
  std::uint32_t ket_end = 0;
  double est_cost = 0.0;        ///< estimated kernel cost (arbitrary units)
};

/// Build the task list. 0 (the default) gives one task per bra row,
/// covering kets [0, bra + 1): whole rows keep the batched kernel's
/// 8-wide batches full. A positive `target_cost` splits each row into
/// chunks that end once their estimated cost reaches it; 1 gives about
/// one ket per task, the finest grain, which the BG/Q projections
/// calibrate on. With a positive
/// `eps_schwarz`, quartets the builder will Schwarz-screen
/// (bra.q * ket.q < eps) are costed at zero — they are a `break` in the
/// kernel loop, not work — so chunk boundaries track the work that
/// actually runs instead of being skewed toward screened-out regions.
/// Costs model the batched SIMD kernel the builder runs: a primitive
/// and angular-momentum flop count per quartet, with each angular class
/// deflated by its measured vectorization speedup (low-L classes gain
/// more than high-L ones), so chunks stay time-even across classes.
/// Units are arbitrary; only relative sizes matter.
std::vector<QuartetTask> make_tasks(const chem::BasisSet& basis,
                                    const ShellPairList& pairs,
                                    double target_cost = 0.0,
                                    double eps_schwarz = 0.0);

/// Total estimated cost of a task list.
double total_cost(const std::vector<QuartetTask>& tasks);

}  // namespace mthfx::hfx
