#pragma once

// Batched SIMD ERI micro-kernel.
//
// The scalar kernel (eri_shell_quartet) evaluates one quartet at a time,
// so the Boys function, the R-tensor recurrence and the two Hermite
// contraction stages all run at vector width 1. This entry point takes
// the whole post-screening quartet stream of a task, groups quartets
// whose pair expansions share an identical structural skeleton, packs up
// to kBoysBatchWidth of them into SoA lanes, and runs every kernel stage
// across the lanes with fixed-width vector loops. Results are written in
// the caller's stream order.
//
// Per batch, for each bra primitive: every surviving ket primitive
// runs the Boys batch (boys_batch) and the R recurrence (a precomputed
// step list per Hermite order), and its ket contraction, with the
// primitive prefactor folded into the ket values, accumulates into one
// per-thread panel (stage 1); then one bra transform of that panel
// accumulates into SoA output blocks (stage 2).
// The blocks are scattered to the lanes once per batch. Stage 2 thus
// runs once per bra primitive, not once per primitive quartet. The
// result agrees with the scalar kernel to a few ulp: the summation is
// regrouped and the Boys top value is tabulated.
//
// Batch formation (see docs/hfx_scheme.md, "Batch formation"):
//   1. sort the stream by the (bra, ket) structure_key() pair, ties by
//      stream index,
//   2. close a batch at kBoysBatchWidth lanes or at the first entry whose
//      bra or ket is neither lane 0's pointer nor structurally equal to
//      it (full same_structure walk: the hash only orders),
//   3. pad ragged tails by replicating lane 0 with a zero prefactor.
// Each lane's block is a pure function of its own (bra, ket): lanes share
// control flow only, and a cut-off or padded lane adds exact zeros. The
// same quartet gives the same bits whatever batch it rides in, which the
// J/K build's bit-identity across thread counts and schedules rests on.

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
/// out[i] (same layout as eri_shell_quartet). Buffers inside out[i] and
/// the kernel scratch are reused across calls — the hot path performs no
/// allocation once capacities are warm.
void eri_shell_quartet_batched(std::span<const QuartetRef> stream,
                               EriBlock* out);

}  // namespace mthfx::ints
