#pragma once

// Fixed-capacity McMurchie–Davidson tables for the hot integral kernels
// (the scalar ERI kernel in eri.cpp and the derivative ERI kernel in
// deriv.cpp). Same recurrences as ints::HermiteE / ints::HermiteR, but
// sized at compile time so a kernel can rebuild them per primitive pair
// or quartet without touching the heap.

#include <cmath>
#include <cstddef>
#include <utility>

#include "ints/boys.hpp"

namespace mthfx::ints::detail {

/// E(t; i, j) for one direction of one primitive pair, i <= MaxI,
/// j <= MaxJ.
template <int MaxI, int MaxJ>
struct E1d {
  // Extent of the t axis. Stored orders reach MaxI + MaxJ, but the
  // j-recurrence reads E(t+1; i, j-1) for t up to i+j, one slot past the
  // last stored order; that slot must exist and stay zero, or a pair at
  // full capacity reads its own freshly written E(0; i, j) there.
  static constexpr std::size_t kT = MaxI + MaxJ + 2;
  double v[MaxI + 1][MaxJ + 1][kT];  // e[i][j][t]

  void build(int imax, int jmax, double a, double b, double ab) {
    const double p = a + b;
    const double mu = a * b / p;
    const double pa = -b * ab / p;
    const double pb = a * ab / p;
    const double inv2p = 0.5 / p;

    for (int i = 0; i <= imax; ++i)
      for (int j = 0; j <= jmax; ++j)
        for (std::size_t t = 0; t < kT; ++t) v[i][j][t] = 0.0;

    v[0][0][0] = std::exp(-mu * ab * ab);
    for (int i = 1; i <= imax; ++i)
      for (int t = 0; t <= i; ++t) {
        double val = pa * v[i - 1][0][t];
        if (t > 0) val += inv2p * v[i - 1][0][t - 1];
        val += (t + 1) * v[i - 1][0][t + 1];
        v[i][0][t] = val;
      }
    for (int j = 1; j <= jmax; ++j)
      for (int i = 0; i <= imax; ++i)
        for (int t = 0; t <= i + j; ++t) {
          double val = pb * v[i][j - 1][t];
          if (t > 0) val += inv2p * v[i][j - 1][t - 1];
          val += (t + 1) * v[i][j - 1][t + 1];
          v[i][j][t] = val;
        }
  }
};

/// Hermite Coulomb tensor R(t, u, v), t + u + v <= MaxTuv, with
/// fixed-capacity ping-pong slices. build() returns the n = 0 slice,
/// indexed (t * n1 + u) * n1 + v with n1 = tuv_max + 1; only entries with
/// t + u + v <= tuv_max are written.
template <int MaxTuv>
struct RTensor {
  static constexpr std::size_t kSlice =
      static_cast<std::size_t>(MaxTuv + 1) * (MaxTuv + 1) * (MaxTuv + 1);
  std::size_t n1 = 0;
  double slice_a[kSlice];
  double slice_b[kSlice];

  const double* build(int tuv_max, double alpha, double x, double y,
                      double z) {
    n1 = static_cast<std::size_t>(tuv_max + 1);
    double f[MaxTuv + 1];
    boys(tuv_max, alpha * (x * x + y * y + z * z), {f, n1});

    double* hi = slice_a;
    double* lo = slice_b;
    const auto idx = [this](int t, int u, int v) {
      return (static_cast<std::size_t>(t) * n1 + static_cast<std::size_t>(u)) *
                 n1 +
             static_cast<std::size_t>(v);
    };
    double powers[MaxTuv + 1];
    double m2a = 1.0;
    for (int n = 0; n <= tuv_max; ++n) {
      powers[n] = m2a;
      m2a *= -2.0 * alpha;
    }
    for (int n = tuv_max; n >= 0; --n) {
      lo[idx(0, 0, 0)] = powers[n] * f[n];
      for (int total = 1; total <= tuv_max - n; ++total) {
        for (int t = total; t >= 0; --t) {
          for (int u = total - t; u >= 0; --u) {
            const int v = total - t - u;
            double val = 0.0;
            if (t > 0) {
              if (t > 1) val += (t - 1) * hi[idx(t - 2, u, v)];
              val += x * hi[idx(t - 1, u, v)];
            } else if (u > 0) {
              if (u > 1) val += (u - 1) * hi[idx(t, u - 2, v)];
              val += y * hi[idx(t, u - 1, v)];
            } else {
              if (v > 1) val += (v - 1) * hi[idx(t, u, v - 2)];
              val += z * hi[idx(t, u, v - 1)];
            }
            lo[idx(t, u, v)] = val;
          }
        }
      }
      std::swap(hi, lo);
    }
    return hi;  // the n = 0 slice
  }
};

}  // namespace mthfx::ints::detail
