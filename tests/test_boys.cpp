#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ints/boys.hpp"

namespace ints = mthfx::ints;

namespace {

// Reference via adaptive Simpson on F_m(T) = ∫₀¹ t^{2m} e^{-T t²} dt.
double boys_quadrature(int m, double t) {
  const int n = 20000;  // fine uniform Simpson grid
  const double h = 1.0 / n;
  auto f = [&](double x) { return std::pow(x, 2 * m) * std::exp(-t * x * x); };
  double s = f(0.0) + f(1.0);
  for (int i = 1; i < n; ++i) s += (i % 2 ? 4.0 : 2.0) * f(i * h);
  return s * h / 3.0;
}

}  // namespace

TEST(Boys, ZeroArgumentClosedForm) {
  std::vector<double> out(6);
  ints::boys(5, 0.0, out);
  for (int m = 0; m <= 5; ++m)
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(m)], 1.0 / (2 * m + 1));
}

TEST(Boys, F0MatchesErfForm) {
  // F_0(T) = sqrt(pi/T)/2 * erf(sqrt(T)), valid at any T > 0.
  for (double t : {0.1, 0.5, 1.0, 5.0, 20.0, 40.0, 100.0}) {
    const double ref = 0.5 * std::sqrt(M_PI / t) * std::erf(std::sqrt(t));
    EXPECT_NEAR(ints::boys_single(0, t), ref, 1e-13) << "T=" << t;
  }
}

class BoysVsQuadrature
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(BoysVsQuadrature, MatchesNumericalIntegral) {
  const auto [m, t] = GetParam();
  EXPECT_NEAR(ints::boys_single(m, t), boys_quadrature(m, t), 1e-11)
      << "m=" << m << " T=" << t;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoysVsQuadrature,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 5, 8),
                       ::testing::Values(1e-8, 1e-3, 0.3, 1.0, 3.0, 10.0, 30.0,
                                         35.9, 36.1, 50.0, 200.0)));

TEST(Boys, DownwardRecursionConsistency) {
  // The defining recursion F_{m+1} = [(2m+1) F_m - e^{-T}] / (2T) must hold
  // across the small/large-T implementation switch.
  for (double t : {0.5, 5.0, 20.0, 35.0, 37.0, 80.0}) {
    std::vector<double> f(8);
    ints::boys(7, t, f);
    for (int m = 0; m < 7; ++m) {
      const double rhs =
          ((2 * m + 1) * f[static_cast<std::size_t>(m)] - std::exp(-t)) /
          (2.0 * t);
      EXPECT_NEAR(f[static_cast<std::size_t>(m + 1)], rhs, 1e-12 * f[0])
          << "m=" << m << " T=" << t;
    }
  }
}

TEST(Boys, MonotoneDecreasingInM) {
  for (double t : {0.0, 1.0, 10.0, 100.0}) {
    std::vector<double> f(10);
    ints::boys(9, t, f);
    for (int m = 0; m < 9; ++m)
      EXPECT_GT(f[static_cast<std::size_t>(m)],
                f[static_cast<std::size_t>(m + 1)]);
  }
}

TEST(Boys, AsymptoticLargeT) {
  // F_m(T) -> (2m-1)!! / (2T)^m * sqrt(pi/T)/2 as T -> inf.
  const double t = 500.0;
  double dfact = 1.0;
  for (int m = 0; m <= 4; ++m) {
    const double ref = dfact / std::pow(2.0 * t, m) * 0.5 * std::sqrt(M_PI / t);
    EXPECT_NEAR(ints::boys_single(m, t) / ref, 1.0, 1e-10);
    dfact *= (2 * m + 1);
  }
}

TEST(Boys, SeamContinuityAcrossBranchSwitch) {
  // The downward-series / upward-erf switch lives at max(18, 2 m_max):
  // T just below that threshold takes the series+downward branch, T at
  // or above it takes the erf+upward branch. F_m changes by ~1 ulp over
  // one ulp of T, so the straddle pair below must agree to the ~1e-15
  // evaluator noise floor; a branch mismatch (the historical fixed seam
  // at T = 36 stepped between two different noise floors) shows up as a
  // jump orders of magnitude larger.
  constexpr int kMaxM = 12;  // largest m_max the ERI kernel requests
  for (int m_max = 0; m_max <= kMaxM; ++m_max) {
    const double seam = std::max(18.0, 2.0 * m_max);
    const double below = std::nextafter(seam, 0.0);  // downward branch
    double lo[ints::kBoysMaxM + 1], hi[ints::kBoysMaxM + 1];
    ints::boys(m_max, below, {lo, static_cast<std::size_t>(m_max) + 1});
    ints::boys(m_max, seam, {hi, static_cast<std::size_t>(m_max) + 1});
    for (int m = 0; m <= m_max; ++m) {
      const std::size_t mi = static_cast<std::size_t>(m);
      EXPECT_NEAR(hi[mi], lo[mi], 1e-13 * lo[mi])
          << "m_max=" << m_max << " m=" << m << " seam=" << seam;
    }
  }
  // The old seam's window: both sides of T = 36 must also track the
  // integral itself, not merely each other.
  for (int m_max = 0; m_max <= kMaxM; m_max += 4) {
    for (double t = 35.9; t <= 36.1; t += 0.02) {
      const double got = ints::boys_single(m_max, t);
      EXPECT_NEAR(got / boys_quadrature(m_max, t), 1.0, 1e-10)
          << "m_max=" << m_max << " T=" << t;
    }
  }
}

TEST(Boys, SingleHandlesMaxSupportedOrder) {
  // boys_single runs on a fixed stack buffer sized by kBoysMaxM (it used
  // to heap-allocate per call); the top supported order must work and
  // agree with quadrature.
  const int m = ints::kBoysMaxM;
  for (double t : {1e-6, 0.5, 7.0, 42.0, 300.0})
    EXPECT_NEAR(ints::boys_single(m, t) / boys_quadrature(m, t), 1.0, 1e-10)
        << "T=" << t;
}

TEST(BoysBatch, MatchesScalarAcrossRegimes) {
  // Two batches, each deliberately mixing both paths, for every m_max
  // the ERI kernel can request. The first spans the regimes: tiny T,
  // mid-range table lanes, lanes the scalar evaluator runs upward while
  // the batch still uses the table, and far upward lanes. The second
  // straddles the batch seam at kBoysTableEdge: lanes one and two ulp
  // below, at, and one and two ulp above it, and 1e-9 and 0.5 away.
  const double edge = ints::kBoysTableEdge;
  const double inf = std::numeric_limits<double>::infinity();
  const double below = std::nextafter(edge, 0.0);
  const double above = std::nextafter(edge, inf);
  const double regimes[ints::kBoysBatchWidth] = {1e-14, 1e-3, 0.7,  5.0,
                                                 17.9,  19.0, 36.0, 250.0};
  const double seam[ints::kBoysBatchWidth] = {
      below,       edge,        above,       std::nextafter(below, 0.0),
      std::nextafter(above, inf), edge - 1e-9, edge + 1e-9, edge + 0.5};
  for (const double* ts : {regimes, seam})
    for (int m_max = 0; m_max <= ints::kBoysMaxM; ++m_max) {
      double batch[(ints::kBoysMaxM + 1) * ints::kBoysBatchWidth];
      ints::boys_batch(m_max, ts, batch);
      for (std::size_t w = 0; w < ints::kBoysBatchWidth; ++w) {
        double ref[ints::kBoysMaxM + 1];
        ints::boys(m_max, ts[w], {ref, static_cast<std::size_t>(m_max) + 1});
        for (int m = 0; m <= m_max; ++m) {
          const double b =
              batch[static_cast<std::size_t>(m) * ints::kBoysBatchWidth + w];
          const double r = ref[static_cast<std::size_t>(m)];
          EXPECT_NEAR(b, r, 1e-13 * r) << "m_max=" << m_max << " m=" << m
                                       << " T=" << ts[w] << " lane=" << w;
        }
      }
    }
}

TEST(BoysBatch, UniformBranchLanesTakeFastPaths) {
  // All-downward and all-upward batches skip the per-lane blend; both
  // fast paths must agree with the scalar evaluator too.
  const double all_down[ints::kBoysBatchWidth] = {0.1, 0.5, 1.0, 2.0,
                                                  4.0, 8.0, 12.0, 17.0};
  const double all_up[ints::kBoysBatchWidth] = {40.0,  50.0,  60.0,  80.0,
                                                100.0, 150.0, 200.0, 400.0};
  for (const double* ts : {all_down, all_up}) {
    double batch[(ints::kBoysMaxM + 1) * ints::kBoysBatchWidth];
    ints::boys_batch(ints::kBoysMaxM, ts, batch);
    for (std::size_t w = 0; w < ints::kBoysBatchWidth; ++w) {
      const double r = ints::boys_single(ints::kBoysMaxM, ts[w]);
      const double b = batch[static_cast<std::size_t>(ints::kBoysMaxM) *
                                 ints::kBoysBatchWidth +
                             w];
      EXPECT_NEAR(b, r, 1e-13 * r) << "T=" << ts[w];
    }
  }
}
