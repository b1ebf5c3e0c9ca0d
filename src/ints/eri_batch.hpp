#pragma once

// Batched SIMD ERI micro-kernel.
//
// The scalar kernel (eri_shell_quartet) evaluates one quartet at a time,
// so the Boys function, the R-tensor recurrence and the two Hermite
// contraction stages all run at vector width 1. This entry point takes
// the whole post-screening quartet stream of a task, groups quartets
// whose pair expansions share an identical structural skeleton
// (ShellPairHermite::structure_key + full verification), packs up to
// kBoysBatchWidth of them into SoA lanes, and runs every kernel stage
// across the lanes with contiguous fixed-width inner loops the compiler
// vectorizes. Results are scattered back in the caller's original stream
// order, so downstream digestion and the tree reduction see exactly the
// per-quartet blocks the scalar kernel would have produced (agreement is
// a few ulp — the only per-lane difference is the tabulated-Taylor Boys
// top value; association order is otherwise identical).
//
// Batch formation (see docs/hfx_scheme.md, "Batch formation"):
//   1. intern each distinct pair pointer to a structural class id,
//   2. stable-sort stream indices by the (bra class, ket class) key,
//   3. cut equal-key runs into chunks of <= kBoysBatchWidth lanes,
//   4. pad ragged tails by replicating lane 0 with a zero prefactor.
// Every step is deterministic, so the same stream always produces the
// same batches and the same floating-point result.

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
