#include "ints/boys.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <numbers>
#include <vector>

#include "ints/simd.hpp"

namespace mthfx::ints {

namespace {

// The erf/upward path is used whenever upward recursion is stable:
// T >= max(kUpwardMinT, 2 m_max). The first bound keeps erf(sqrt T)
// cheap and the series short where it is still used; the second keeps
// the per-step error factor (2m+1)/(2T) below 1 and the subtracted
// e^{-T} term negligible against (2m+1) F_m for every m <= m_max
// (measured: <= ~3 ulp for all m_max <= 32 at this threshold, versus
// ~1.5e-15 relative for the large-sum ascending series near T = 36 —
// the old fixed seam at 36 stepped between those two noise floors).
constexpr double kUpwardMinT = 18.0;

double upward_threshold(int m_max) {
  return std::max(kUpwardMinT, 2.0 * m_max);
}

double boys_series(int m, double t) {
  // F_m(T) = exp(-T) Σ_{i≥0} (2T)^i / [(2m+1)(2m+3)...(2m+2i+1)]
  double term = 1.0 / (2 * m + 1);
  double sum = term;
  for (int i = 1; i < 200; ++i) {
    term *= 2.0 * t / (2 * m + 2 * i + 1);
    sum += term;
    if (term < 1e-17 * sum) break;
  }
  return std::exp(-t) * sum;
}

}  // namespace

void boys(int m_max, double t, std::span<double> out) {
  assert(static_cast<int>(out.size()) >= m_max + 1);
  if (t < 1e-13) {
    for (int m = 0; m <= m_max; ++m) out[static_cast<std::size_t>(m)] = 1.0 / (2 * m + 1);
    return;
  }
  if (t < upward_threshold(m_max)) {
    // Downward recursion from a series-evaluated top value:
    // F_m = (2T F_{m+1} + e^{-T}) / (2m+1).
    const double emt = std::exp(-t);
    out[static_cast<std::size_t>(m_max)] = boys_series(m_max, t);
    for (int m = m_max - 1; m >= 0; --m)
      out[static_cast<std::size_t>(m)] =
          (2.0 * t * out[static_cast<std::size_t>(m + 1)] + emt) / (2 * m + 1);
    return;
  }
  // Stable-upward regime: F_0 = sqrt(pi/T)/2 erf(sqrt T); upward
  // recursion F_{m+1} = ((2m+1) F_m - e^{-T}) / (2T).
  const double emt = std::exp(-t);
  out[0] = 0.5 * std::sqrt(std::numbers::pi / t) * std::erf(std::sqrt(t));
  for (int m = 0; m < m_max; ++m)
    out[static_cast<std::size_t>(m + 1)] =
        ((2 * m + 1) * out[static_cast<std::size_t>(m)] - emt) / (2.0 * t);
}

double boys_single(int m, double t) {
  assert(m <= kBoysMaxM);
  double buf[kBoysMaxM + 1];
  boys(m, t, {buf, static_cast<std::size_t>(m) + 1});
  return buf[m];
}

namespace {

// ---- Batched path: tabulated Taylor top value + downward recursion
// below the table edge, the erf-free closed form + upward recursion at
// or above it.

constexpr std::size_t kW = kBoysBatchWidth;
constexpr int kTaylorTerms = 7;   // |δ| <= h/2 ⇒ truncation ~ (h/2)^7 / 7!
constexpr double kGridStep = 1.0 / 32.0;
// The table spans [0, kBoysTableEdge], the seam for every m_max. At or
// above the seam erf(√T) rounds to exactly 1.0 (erfc(√40) ≈ 4e-19 is
// below half an ulp of 1), so F_0 = ½√(π/T) is exact there, and upward
// recursion is stable for every m_max <= kBoysMaxM ((2m+1)/(2T) < 1).
constexpr std::size_t kGridPoints =
    static_cast<std::size_t>(kBoysTableEdge / kGridStep) + 2;  // + guard row
constexpr std::size_t kTableCols =
    static_cast<std::size_t>(kBoysMaxM) + kTaylorTerms + 1;

// 1/n for n <= 2 kBoysMaxM + 1: the recursions' divisors as multipliers.
constexpr auto kInv = [] {
  std::array<double, 2 * kBoysMaxM + 2> inv{};
  for (std::size_t n = 1; n < inv.size(); ++n)
    inv[n] = 1.0 / static_cast<double>(n);
  return inv;
}();

// F_m(T_g) on the grid, row-major [grid][m], seeded from the scalar
// series path so the two evaluators share one source of truth.
const double* boys_table() {
  static const std::vector<double> table = [] {
    std::vector<double> t(kGridPoints * kTableCols);
    std::vector<double> row(kTableCols);
    for (std::size_t g = 0; g < kGridPoints; ++g) {
      const double tg = static_cast<double>(g) * kGridStep;
      // Series + downward directly (not boys(), whose path choice would
      // hand large-T rows to upward recursion — fine too, but the series
      // is convergent over the whole table range and keeps this loop
      // independent of the seam policy).
      const int top = static_cast<int>(kTableCols) - 1;
      const double emt = std::exp(-tg);
      row[static_cast<std::size_t>(top)] = boys_series(top, tg);
      for (int m = top - 1; m >= 0; --m)
        row[static_cast<std::size_t>(m)] =
            (2.0 * tg * row[static_cast<std::size_t>(m + 1)] + emt) /
            (2 * m + 1);
      std::copy(row.begin(), row.end(), t.begin() + g * kTableCols);
    }
    return t;
  }();
  return table.data();
}

}  // namespace

void boys_batch(int m_max, const double* t, double* out) {
  assert(m_max <= kBoysMaxM);
  const double* table = boys_table();
  const std::size_t mm = static_cast<std::size_t>(m_max);

  // Per-lane setup. Each path's dead lanes run on clamped arguments
  // (T_down = 0, T_up = the edge), so they stay finite and in-table; the
  // final blend discards them.
  double td[kW], tu[kW], delta[kW];
  double rows[(kTaylorTerms + 1) * kW];  // Taylor coefficients [k][lane]
  bool up[kW];
  bool any_up = false, any_down = false;
  for (std::size_t w = 0; w < kW; ++w) {
    up[w] = t[w] >= kBoysTableEdge;
    any_up |= up[w];
    any_down |= !up[w];
    td[w] = up[w] ? 0.0 : t[w];
    tu[w] = up[w] ? t[w] : kBoysTableEdge;
    // Nearest grid point, |T_g - T| <= h/2.
    const std::size_t g = static_cast<std::size_t>(td[w] / kGridStep + 0.5);
    delta[w] = static_cast<double>(g) * kGridStep - td[w];
    const double* row = table + g * kTableCols + mm;
    for (int k = 0; k <= kTaylorTerms; ++k)
      rows[static_cast<std::size_t>(k) * kW + w] = row[k];
  }
  const V8 vemt = v8_exp(v8_zero() - v8_load(t));

  double down[(kBoysMaxM + 1) * kW];
  double upv[(kBoysMaxM + 1) * kW];
  if (any_down) {
    // Taylor top value about the grid point:
    // F_m(T) = Σ_k F_{m+k}(T_g) (T_g - T)^k / k!.
    const V8 vdelta = v8_load(delta);
    V8 hi = v8_load(rows + kTaylorTerms * kW);
    for (int k = kTaylorTerms - 1; k >= 0; --k)
      hi = v8_load(rows + static_cast<std::size_t>(k) * kW) +
           vdelta * hi *
               v8_broadcast(kInv[static_cast<std::size_t>(k) + 1]);
    // Downward, m_max -> 0: F_m = (2T F_{m+1} + e^{-T}) / (2m+1).
    const V8 two_td = v8_broadcast(2.0) * v8_load(td);
    v8_store(down + mm * kW, hi);
    for (int m = m_max - 1; m >= 0; --m) {
      hi = (two_td * hi + vemt) *
           v8_broadcast(kInv[2 * static_cast<std::size_t>(m) + 1]);
      v8_store(down + static_cast<std::size_t>(m) * kW, hi);
    }
  }
  if (any_up) {
    // F_0 = ½√(π/T); upward: F_{m+1} = ((2m+1) F_m − e^{-T}) / (2T).
    double root[kW];
    for (std::size_t w = 0; w < kW; ++w) root[w] = std::sqrt(tu[w]);
    const V8 inv_two_tu = v8_broadcast(0.5) / v8_load(tu);
    V8 lo = v8_broadcast(0.5 * std::sqrt(std::numbers::pi)) / v8_load(root);
    v8_store(upv, lo);
    for (int m = 0; m < m_max; ++m) {
      lo = (v8_broadcast(static_cast<double>(2 * m + 1)) * lo - vemt) *
           inv_two_tu;
      v8_store(upv + static_cast<std::size_t>(m + 1) * kW, lo);
    }
  }

  const std::size_t nout = (mm + 1) * kW;
  if (!any_up) {
    std::copy(down, down + nout, out);
    return;
  }
  if (!any_down) {
    std::copy(upv, upv + nout, out);
    return;
  }
  for (std::size_t m = 0; m <= mm; ++m)
    for (std::size_t w = 0; w < kW; ++w)
      out[m * kW + w] = up[w] ? upv[m * kW + w] : down[m * kW + w];
}

}  // namespace mthfx::ints
