#pragma once

// Batched SIMD ERI micro-kernel: the one quartet kernel. The J/K build,
// the Schwarz diagonals (schwarz.hpp), the shell-level API and the full
// tensor (eri.hpp) all run it.
//
// Evaluated one quartet at a time, the Boys function, the R-tensor
// recurrence and the two Hermite contraction stages would all run at
// vector width 1. This entry point takes a whole quartet stream (the
// post-screening kets of a J/K stream group, several bra rows long, or
// one row of Schwarz diagonals), groups quartets whose bra and ket pairs
// share a class (one skeleton and one primitive count,
// ShellPairHermite::class_id), packs up to kBoysBatchWidth of them into
// SoA lanes, and runs every kernel stage across the lanes with
// fixed-width vector loops. Results are written in the caller's stream
// order.
//
// Per batch, for each bra primitive: every surviving ket primitive
// runs the Boys batch (boys_batch) and the R recurrence (a precomputed
// step list per Hermite order), and its ket contraction, with the
// primitive prefactor folded into the ket values, accumulates into one
// per-thread panel (stage 1); then one bra transform of that panel
// accumulates into SoA output blocks (stage 2).
// The blocks are scattered to the lanes once per batch. Stage 2 thus
// runs once per bra primitive, not once per primitive quartet. The
// result agrees with the dense reference (testing::dense_reference_quartet)
// to 1e-12: the summation is regrouped and the Boys top value is
// tabulated.
//
// Batch formation (see docs/hfx_scheme.md, "Batch formation"):
//   1. sort the stream by the (bra, ket) class ids, ties by stream index,
//   2. close a batch at kBoysBatchWidth lanes or where either class
//      changes,
//   3. pad ragged tails by replicating lane 0 with a zero prefactor.
// A batch evaluates only the skeleton entries some lane's pair has
// nonzero (ShellPairHermite::live_), packs only those entries' values,
// and its panel holds only the bra union points those entries read, so
// a batch whose pairs all leave a slot empty (a same-centre pair batched
// alone, say) does no work for it. A batch whose bra lanes are the
// previous batch's (consecutive batches that take one bra row) reuses
// their packed data and entry lists within one call; a batch whose lanes
// span several bra rows packs its bras afresh.
// Each lane's block is a pure function of its own (bra, ket): lanes share
// control flow only, and a cut-off or padded lane, or a skeleton slot the
// lane's pair leaves empty, adds exact zeros. The same quartet gives the
// same bits whatever batch it rides in (up to the sign of exactly zero
// elements), which the J/K build's bit-identity across thread counts and
// schedules rests on.

#include <cstddef>
#include <span>

#include "ints/eri.hpp"

namespace mthfx::ints {

/// One quartet of a post-screening stream: bra/ket pair expansions.
/// Pairs may repeat across entries.
struct QuartetRef {
  const ShellPairHermite* bra = nullptr;
  const ShellPairHermite* ket = nullptr;
};

/// Evaluate every quartet in `stream`, writing stream[i]'s block into
/// out[i] (EriBlock layout), and return the number of batches run
/// (stream.size() / batches is the lane fill). Buffers inside out[i] and
/// the kernel scratch are reused across calls — the hot path performs no
/// allocation once capacities are warm. With `seconds`, stream[i]'s share
/// of the wall time goes to seconds[i]: its batch's time divided by the
/// batch's lane count, so the shares add up to the call's time.
std::size_t eri_shell_quartet_batched(std::span<const QuartetRef> stream,
                                      EriBlock* out,
                                      double* seconds = nullptr);

}  // namespace mthfx::ints
