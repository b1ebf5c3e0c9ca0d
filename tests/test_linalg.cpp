#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <random>
#include <vector>

#include "linalg/block_sparse.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/diis.hpp"
#include "linalg/eigen.hpp"
#include "linalg/matrix.hpp"
#include "linalg/purify.hpp"
#include "obs/registry.hpp"

namespace la = mthfx::linalg;

namespace {

la::Matrix random_symmetric(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  la::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i; j < n; ++j) {
      const double v = dist(rng);
      a(i, j) = v;
      a(j, i) = v;
    }
  return a;
}

la::Matrix random_spd(std::size_t n, unsigned seed) {
  la::Matrix a = random_symmetric(n, seed);
  la::Matrix spd = la::matmul(la::transpose(a), a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

}  // namespace

TEST(Matrix, BasicArithmetic) {
  la::Matrix a(2, 2, {1, 2, 3, 4});
  la::Matrix b(2, 2, {5, 6, 7, 8});
  la::Matrix c = a + b;
  EXPECT_DOUBLE_EQ(c(0, 0), 6);
  EXPECT_DOUBLE_EQ(c(1, 1), 12);
  c -= a;
  EXPECT_EQ(c, b);
  c = 2.0 * a;
  EXPECT_DOUBLE_EQ(c(1, 0), 6);
}

TEST(Matrix, MatmulMatchesHandComputation) {
  la::Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  la::Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
  la::Matrix c = la::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 58);
  EXPECT_DOUBLE_EQ(c(0, 1), 64);
  EXPECT_DOUBLE_EQ(c(1, 0), 139);
  EXPECT_DOUBLE_EQ(c(1, 1), 154);
}

TEST(Matrix, MatmulAssociatesWithIdentity) {
  const la::Matrix a = random_symmetric(17, 3);
  const la::Matrix i = la::Matrix::identity(17);
  EXPECT_LT(la::max_abs(la::matmul(a, i) - a), 1e-14);
  EXPECT_LT(la::max_abs(la::matmul(i, a) - a), 1e-14);
}

TEST(Matrix, BlockedGemmMatchesNaiveOnLargerSizes) {
  // Exercise the kBlock tiling boundary (block size 64).
  const std::size_t m = 70, k = 65, n = 67;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  la::Matrix a(m, k), b(k, n);
  for (double& v : a.flat()) v = dist(rng);
  for (double& v : b.flat()) v = dist(rng);
  const la::Matrix c = la::matmul(a, b);
  la::Matrix ref(m, n);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0;
      for (std::size_t p = 0; p < k; ++p) s += a(i, p) * b(p, j);
      ref(i, j) = s;
    }
  EXPECT_LT(la::max_abs(c - ref), 1e-12);
}

TEST(Matrix, TraceAndTraceProduct) {
  const la::Matrix a = random_symmetric(9, 5);
  const la::Matrix b = random_symmetric(9, 6);
  EXPECT_NEAR(la::trace_product(a, b), la::trace(la::matmul(a, b)), 1e-12);
}

TEST(Eigen, DiagonalMatrix) {
  la::Matrix a(3, 3);
  a(0, 0) = 3.0;
  a(1, 1) = -1.0;
  a(2, 2) = 2.0;
  const auto r = la::eigh(a);
  EXPECT_NEAR(r.values[0], -1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 2.0, 1e-12);
  EXPECT_NEAR(r.values[2], 3.0, 1e-12);
}

TEST(Eigen, KnownTwoByTwo) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  la::Matrix a(2, 2, {2, 1, 1, 2});
  const auto r = la::eigh(a);
  EXPECT_NEAR(r.values[0], 1.0, 1e-12);
  EXPECT_NEAR(r.values[1], 3.0, 1e-12);
}

TEST(Eigen, ReconstructsMatrix) {
  const la::Matrix a = random_symmetric(20, 42);
  const auto r = la::eigh(a);
  // A = V diag(w) V^T
  la::Matrix lam(20, 20);
  for (std::size_t i = 0; i < 20; ++i) lam(i, i) = r.values[i];
  const la::Matrix rec =
      la::matmul(la::matmul(r.vectors, lam), la::transpose(r.vectors));
  EXPECT_LT(la::max_abs(rec - a), 1e-9);
}

TEST(Eigen, VectorsAreOrthonormal) {
  const la::Matrix a = random_symmetric(15, 7);
  const auto r = la::eigh(a);
  const la::Matrix vtv = la::matmul(la::transpose(r.vectors), r.vectors);
  EXPECT_LT(la::max_abs(vtv - la::Matrix::identity(15)), 1e-10);
}

TEST(Eigen, ThrowsOnNonSquare) {
  la::Matrix a(2, 3);
  EXPECT_THROW(la::eigh(a), std::invalid_argument);
}

TEST(Eigen, InverseSqrtOrthogonalizes) {
  const la::Matrix s = random_spd(12, 9);
  const la::Matrix x = la::inverse_sqrt(s);
  const la::Matrix xtsx = la::matmul(la::matmul(x, s), x);
  EXPECT_LT(la::max_abs(xtsx - la::Matrix::identity(12)), 1e-9);
}

TEST(Eigen, SqrtSymSquaresBack) {
  const la::Matrix s = random_spd(10, 13);
  const la::Matrix h = la::sqrt_sym(s);
  EXPECT_LT(la::max_abs(la::matmul(h, h) - s), 1e-9);
}

TEST(Cholesky, FactorizesSpd) {
  const la::Matrix a = random_spd(14, 21);
  const auto l = la::cholesky(a);
  ASSERT_TRUE(l.has_value());
  EXPECT_LT(la::max_abs(la::matmul(*l, la::transpose(*l)) - a), 1e-9);
}

TEST(Cholesky, RejectsIndefinite) {
  la::Matrix a(2, 2, {1, 2, 2, 1});  // eigenvalues 3, -1
  EXPECT_FALSE(la::cholesky(a).has_value());
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const la::Matrix a = random_spd(8, 2);
  la::Vector x_true(8);
  for (std::size_t i = 0; i < 8; ++i) x_true[i] = static_cast<double>(i) - 3.5;
  la::Vector b(8, 0.0);
  for (std::size_t i = 0; i < 8; ++i)
    for (std::size_t j = 0; j < 8; ++j) b[i] += a(i, j) * x_true[j];
  const auto x = la::cholesky_solve(a, b);
  ASSERT_TRUE(x.has_value());
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-9);
}

TEST(LuSolve, SolvesIndefiniteSymmetricSystem) {
  la::Matrix a(3, 3, {0, 1, 2, 1, 0, 3, 2, 3, 0});
  la::Vector x_true{1, -2, 0.5};
  la::Vector b(3, 0.0);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) b[i] += a(i, j) * x_true[j];
  const auto x = la::lu_solve(a, b);
  ASSERT_TRUE(x.has_value());
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR((*x)[i], x_true[i], 1e-12);
}

TEST(LuSolve, DetectsSingular) {
  la::Matrix a(2, 2, {1, 2, 2, 4});
  EXPECT_FALSE(la::lu_solve(a, {1, 1}).has_value());
}

TEST(Diis, PassthroughWithShortHistory) {
  la::Diis diis;
  la::Matrix f(2, 2, {1, 0, 0, 1});
  la::Matrix e(2, 2, {0.1, 0, 0, -0.1});
  const la::Matrix out = diis.extrapolate(f, e);
  EXPECT_EQ(out, f);
  EXPECT_NEAR(diis.last_error_norm(), 0.1, 1e-15);
}

TEST(Diis, ExactExtrapolationForLinearProblem) {
  // If errors are linear in the Focks, DIIS finds the zero-error mix.
  // e1 = +E, e2 = -E  =>  c = (1/2, 1/2) and mixed F = (F1+F2)/2.
  la::Diis diis;
  la::Matrix f1(2, 2, {1, 0, 0, 1});
  la::Matrix f2(2, 2, {3, 0, 0, 3});
  la::Matrix e1(2, 2, {0.2, 0, 0, 0.2});
  la::Matrix e2(2, 2, {-0.2, 0, 0, -0.2});
  diis.extrapolate(f1, e1);
  const la::Matrix out = diis.extrapolate(f2, e2);
  EXPECT_NEAR(out(0, 0), 2.0, 1e-10);
  EXPECT_NEAR(out(1, 1), 2.0, 1e-10);
}

TEST(Diis, HistoryIsBounded) {
  la::Diis diis(3);
  la::Matrix f(1, 1, {1.0});
  for (int i = 0; i < 10; ++i) {
    la::Matrix e(1, 1, {1.0 / (i + 1)});
    diis.extrapolate(f, e);
  }
  EXPECT_LE(diis.history_size(), 3u);
}

TEST(Diis, JointExtrapolationSharesCoefficients) {
  // Alone, channel a (errors +1, -1) would mix c = (1/2, 1/2) and channel
  // b (errors 1, 0) c = (0, 1). Jointly, c minimizes (c1 - c2)^2 + c1^2
  // with c1 + c2 = 1, so both channels take c = (0.4, 0.6).
  la::Diis a, b;
  const std::array<la::Diis*, 2> both{&a, &b};
  std::array<la::Matrix, 2> f{la::Matrix(1, 1, {1.0}),
                              la::Matrix(1, 1, {10.0})};
  const std::array<la::Matrix, 2> e1{la::Matrix(1, 1, {1.0}),
                                     la::Matrix(1, 1, {1.0})};
  la::Diis::extrapolate_jointly(both, f, e1);
  EXPECT_EQ(f[0](0, 0), 1.0);  // one pair: passed through
  f = {la::Matrix(1, 1, {3.0}), la::Matrix(1, 1, {20.0})};
  const std::array<la::Matrix, 2> e2{la::Matrix(1, 1, {-1.0}),
                                     la::Matrix(1, 1, {0.0})};
  la::Diis::extrapolate_jointly(both, f, e2);
  EXPECT_NEAR(f[0](0, 0), 0.4 * 1.0 + 0.6 * 3.0, 1e-12);
  EXPECT_NEAR(f[1](0, 0), 0.4 * 10.0 + 0.6 * 20.0, 1e-12);
  EXPECT_EQ(a.history_size(), 2u);
  EXPECT_EQ(b.history_size(), 2u);
}

class SymmetrizeParam : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SymmetrizeParam, SymmetrizeMakesSymmetric) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  la::Matrix a(GetParam(), GetParam());
  for (double& v : a.flat()) v = dist(rng);
  la::symmetrize(a);
  EXPECT_TRUE(la::is_symmetric(a));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetrizeParam,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Eigensolver pre-check and observability.

TEST(EighPrecheck, DiagonalMatrixUsesZeroSweeps) {
  la::Matrix a(5, 5);
  for (std::size_t i = 0; i < 5; ++i) a(i, i) = 5.0 - static_cast<double>(i);
  const auto r = la::eigh(a);
  EXPECT_EQ(r.sweeps, 0);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_DOUBLE_EQ(r.values[i], 1.0 + static_cast<double>(i));
}

TEST(EighPrecheck, BlockDiagonalMatchesFullSolve) {
  // Two decoupled 4x4 blocks on a 8x8 matrix: the component pre-check
  // must reproduce the fully-coupled solver's spectrum.
  la::Matrix a(8, 8);
  const la::Matrix b1 = random_symmetric(4, 11);
  const la::Matrix b2 = random_symmetric(4, 12);
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      a(i, j) = b1(i, j);
      a(4 + i, 4 + j) = b2(i, j);
    }
  const auto split = la::eigh(a);
  // Reference: solve the blocks independently and merge-sort the values.
  std::vector<double> ref;
  for (double v : la::eigh(b1).values) ref.push_back(v);
  for (double v : la::eigh(b2).values) ref.push_back(v);
  std::sort(ref.begin(), ref.end());
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_NEAR(split.values[i], ref[i], 1e-10);
  // Eigenvectors must still diagonalize: A v = lambda v.
  for (std::size_t k = 0; k < 8; ++k) {
    for (std::size_t i = 0; i < 8; ++i) {
      double av = 0.0;
      for (std::size_t j = 0; j < 8; ++j) av += a(i, j) * split.vectors(j, k);
      EXPECT_NEAR(av, split.values[k] * split.vectors(i, k), 1e-9);
    }
  }
}

TEST(EighPrecheck, SweepCounterAccumulates) {
  auto& reg = mthfx::obs::global_registry();
  const auto calls0 = reg.counter_total("linalg.eigh.calls");
  const auto sweeps0 = reg.counter_total("linalg.eigh.sweeps");
  la::eigh(random_symmetric(6, 21));
  EXPECT_EQ(reg.counter_total("linalg.eigh.calls"), calls0 + 1);
  EXPECT_GT(reg.counter_total("linalg.eigh.sweeps"), sweeps0);
  // A diagonal input records the call but zero sweeps.
  la::Matrix d(3, 3);
  d(0, 0) = 1; d(1, 1) = 2; d(2, 2) = 3;
  const auto sweeps1 = reg.counter_total("linalg.eigh.sweeps");
  la::eigh(d);
  EXPECT_EQ(reg.counter_total("linalg.eigh.sweeps"), sweeps1);
}

// ---------------------------------------------------------------------------
// Block-sparse matrices.

namespace {

la::Matrix banded_spd(std::size_t n, unsigned seed, std::size_t bandwidth) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-0.4, 0.4);
  la::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    a(i, i) = 2.0 + 0.05 * static_cast<double>(i % 7);
    for (std::size_t j = i + 1; j < std::min(n, i + bandwidth); ++j) {
      const double v = dist(rng) / static_cast<double>(j - i);
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

}  // namespace

TEST(BlockSparse, RoundTripAndNnz) {
  const la::Matrix a = banded_spd(20, 3, 4);
  const auto part = la::BlockPartition::uniform(20, 5);
  const auto blk = la::BlockSparseMatrix::from_dense(a, part, 0.0);
  const la::Matrix back = blk.to_dense();
  for (std::size_t i = 0; i < 20; ++i)
    for (std::size_t j = 0; j < 20; ++j)
      EXPECT_DOUBLE_EQ(back(i, j), a(i, j));
  EXPECT_GT(blk.nnz_fraction(), 0.0);
  EXPECT_LT(blk.nnz_fraction(), 1.0);  // far-off-diagonal blocks absent
}

TEST(BlockSparse, MultiplyMatchesDense) {
  const la::Matrix a = banded_spd(18, 5, 5);
  const la::Matrix b = banded_spd(18, 6, 3);
  const auto part = la::BlockPartition::uniform(18, 4);
  const auto ab = la::multiply(la::BlockSparseMatrix::from_dense(a, part, 0.0),
                               la::BlockSparseMatrix::from_dense(b, part, 0.0),
                               0.0)
                      .to_dense();
  const la::Matrix ref = la::matmul(a, b);
  for (std::size_t i = 0; i < 18; ++i)
    for (std::size_t j = 0; j < 18; ++j)
      EXPECT_NEAR(ab(i, j), ref(i, j), 1e-12);
}

// ---------------------------------------------------------------------------
// Purification (eigensolver bypass).

TEST(Purify, NewtonSchulzMatchesEighInverseSqrt) {
  const std::size_t n = 24;
  const la::Matrix s = banded_spd(n, 9, 4);
  const auto part = la::BlockPartition::uniform(n, 6);
  const auto ns =
      la::inverse_sqrt_ns(la::BlockSparseMatrix::from_dense(s, part, 0.0), 0.0);
  ASSERT_TRUE(ns.converged);
  // X S X = I is the defining property.
  const la::Matrix x = ns.inverse_sqrt.to_dense();
  const la::Matrix xsx = la::matmul(la::matmul(x, s), x);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(xsx(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(Purify, Tc2MatchesEighProjector) {
  const std::size_t n = 16, nocc = 5;
  const la::Matrix f = random_symmetric(n, 33);
  const auto part = la::BlockPartition::uniform(n, 4);
  la::PurifyStats stats;
  const la::Matrix p =
      la::tc2_density(la::BlockSparseMatrix::from_dense(f, part, 0.0), nocc,
                      0.0, &stats)
          .to_dense();
  ASSERT_TRUE(stats.converged);
  // Reference projector from the eigensolver.
  const auto e = la::eigh(f);
  la::Matrix ref(n, n);
  for (std::size_t k = 0; k < nocc; ++k)
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ref(i, j) += e.vectors(i, k) * e.vectors(j, k);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(p(i, j), ref(i, j), 1e-8);
  EXPECT_LT(stats.trace_error, 1e-9);
  EXPECT_LT(stats.idempotency_error, 1e-8);
}
