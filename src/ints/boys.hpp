#pragma once

// Boys function F_m(T) = ∫₀¹ t^{2m} exp(-T t²) dt — the scalar kernel of
// every Coulomb-type Gaussian integral.

#include <cstddef>
#include <span>

namespace mthfx::ints {

/// Largest Hermite order the integral stack ever requests (f shells on
/// all four centers plus derivative headroom). Bounds the fixed stack
/// buffers in boys_single and the batched-table extent.
inline constexpr int kBoysMaxM = 20;

/// Seam of the batched evaluator, for every m_max: below it a lane takes
/// the tabulated Taylor top value and downward recursion; at or above it,
/// where erf(√T) rounds to exactly 1.0, the closed form F_0 = ½√(π/T) and
/// upward recursion.
inline constexpr double kBoysTableEdge = 2.0 * kBoysMaxM;

/// Lane count of the batched evaluator: one AVX-512 register of doubles,
/// and the quartet width of the batched ERI kernel.
inline constexpr std::size_t kBoysBatchWidth = 8;

/// Fill out[0..m_max] with F_0(T) .. F_{m_max}(T).
/// Strategy: erf-based closed form + upward recursion wherever that
/// recursion is stable (T >= max(18, 2 m_max): no cancellation against
/// the e^{-T} term and the per-step error contracts); convergent
/// ascending series + downward recursion below that.
void boys(int m_max, double t, std::span<double> out);

/// Single value F_m(T). m must be <= kBoysMaxM (fixed stack buffer — the
/// O(np²) sweeps call this too often to heap-allocate per call).
double boys_single(int m, double t);

/// Batched evaluation for kBoysBatchWidth lanes: out is SoA,
/// out[m * kBoysBatchWidth + w] = F_m(t[w]). Branch-free per lane — a
/// tabulated Taylor top value + vectorized downward recursion below
/// kBoysTableEdge, the erf-free closed form + upward recursion at or
/// above it, blended by per-lane mask (both paths are evaluated with
/// clamped arguments, so no lane ever divides by a small T or reads past
/// the table). The recursions multiply by constant reciprocals instead
/// of dividing. Each lane's values depend on its own T alone. Requires
/// m_max <= kBoysMaxM. Agrees with the scalar boys() (the reference) to
/// a few ulp on every lane.
void boys_batch(int m_max, const double* t, double* out);

}  // namespace mthfx::ints
