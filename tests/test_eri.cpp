#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "ints/eri.hpp"
#include "ints/eri_batch.hpp"
#include "ints/schwarz.hpp"
#include "testing/oracles.hpp"

namespace chem = mthfx::chem;
namespace ints = mthfx::ints;
namespace mt = mthfx::testing;

namespace {

chem::Molecule h2_molecule(double r_bohr = 1.4) {
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, r_bohr});
  return m;
}

}  // namespace

// Szabo–Ostlund H2/STO-3G ERI reference values (chemists' notation).
TEST(Eri, H2Sto3gReferenceValues) {
  const auto m = h2_molecule();
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto t = ints::eri_tensor(basis);
  const std::size_t n = basis.num_functions();
  auto at = [&](std::size_t i, std::size_t j, std::size_t k, std::size_t l) {
    return t[((i * n + j) * n + k) * n + l];
  };
  EXPECT_NEAR(at(0, 0, 0, 0), 0.7746, 2e-4);
  EXPECT_NEAR(at(0, 0, 1, 1), 0.5697, 2e-4);
  EXPECT_NEAR(at(1, 0, 0, 0), 0.4441, 2e-4);
  EXPECT_NEAR(at(1, 0, 1, 0), 0.2970, 2e-4);
}

TEST(Eri, EightFoldPermutationalSymmetry) {
  const auto m = chem::Molecule::from_xyz(
      "3\nwater\nO 0.0 0.0 0.1173\nH 0.0 0.7572 -0.4692\nH 0.0 -0.7572 "
      "-0.4692\n");
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto t = ints::eri_tensor(basis);
  const std::size_t n = basis.num_functions();
  auto at = [&](std::size_t i, std::size_t j, std::size_t k, std::size_t l) {
    return t[((i * n + j) * n + k) * n + l];
  };
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      for (std::size_t k = 0; k < n; ++k)
        for (std::size_t l = 0; l <= k; ++l) {
          const double v = at(i, j, k, l);
          EXPECT_NEAR(at(j, i, k, l), v, 1e-11);
          EXPECT_NEAR(at(i, j, l, k), v, 1e-11);
          EXPECT_NEAR(at(k, l, i, j), v, 1e-11);
          EXPECT_NEAR(at(l, k, j, i), v, 1e-11);
        }
}

TEST(Eri, DiagonalElementsArePositive) {
  // (ij|ij) >= 0: it is a Coulomb self-repulsion.
  const auto m = h2_molecule(1.2);
  const auto basis = chem::BasisSet::build(m, "6-31g");
  const auto t = ints::eri_tensor(basis);
  const std::size_t n = basis.num_functions();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_GE(t[((i * n + j) * n + i) * n + j], -1e-12);
}

TEST(Eri, SchwarzInequalityHolds) {
  const auto m = chem::Molecule::from_xyz(
      "3\nwater\nO 0.0 0.0 0.1173\nH 0.0 0.7572 -0.4692\nH 0.0 -0.7572 "
      "-0.4692\n");
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto q = ints::schwarz_bounds(basis);
  for (std::size_t sa = 0; sa < basis.num_shells(); ++sa)
    for (std::size_t sb = 0; sb < basis.num_shells(); ++sb)
      for (std::size_t sc = 0; sc < basis.num_shells(); ++sc)
        for (std::size_t sd = 0; sd < basis.num_shells(); ++sd) {
          const auto block =
              ints::eri_shell_quartet(basis.shell(sa), basis.shell(sb),
                                      basis.shell(sc), basis.shell(sd));
          double mx = 0.0;
          for (double v : block.values) mx = std::max(mx, std::abs(v));
          EXPECT_LE(mx, q(sa, sb) * q(sc, sd) + 1e-12)
              << sa << sb << sc << sd;
        }
}

// Regression (found by PropertyHfx.SchwarzBoundNeverViolated): for a
// distant pair the kernel's primitive cutoff makes the computed (ab|ab)
// exactly 0, but cross integrals against that pair still compute at
// ~1e-16. The bound table must floor sub-noise diagonals at the kernel's
// truncation scale so (a) the Schwarz inequality holds for *computed*
// integrals with no additive fudge — only a few-ulp relative slack for
// the sqrt/product rounding of the bound itself — and (b) no pair's
// bound is exactly 0: a zero bound drops the pair at any eps, so
// eps -> 0 would never recover the unscreened result.
TEST(Eri, SchwarzBoundsSurviveUnderflowingDiagonals) {
  // Shrunk witness from the property harness (coordinates in Angstrom).
  const auto m = chem::Molecule::from_xyz(
      "2\ndistant LiO\nLi 3.1867180343 0.0300792487 2.8296176852\n"
      "O 0.5649454403 2.3480062295 1.8925279138\n");
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto q = ints::schwarz_bounds(basis);
  for (std::size_t sa = 0; sa < basis.num_shells(); ++sa)
    for (std::size_t sb = 0; sb < basis.num_shells(); ++sb) {
      EXPECT_GT(q(sa, sb), 0.0) << "zero Schwarz bound for pair " << sa
                                << "," << sb;
      for (std::size_t sc = 0; sc < basis.num_shells(); ++sc)
        for (std::size_t sd = 0; sd < basis.num_shells(); ++sd) {
          const auto block =
              ints::eri_shell_quartet(basis.shell(sa), basis.shell(sb),
                                      basis.shell(sc), basis.shell(sd));
          double mx = 0.0;
          for (double v : block.values) mx = std::max(mx, std::abs(v));
          // (1 + 1e-14): self-quartets saturate the bound exactly, and
          // q*q = sqrt(mx)^2 can round a few ulp below mx.
          EXPECT_LE(mx, q(sa, sb) * q(sc, sd) * (1.0 + 1e-14))
              << sa << sb << sc << sd;
        }
    }
}

TEST(Eri, LongRangeDecaysAsOneOverR) {
  // Two well-separated s functions: (aa|bb) -> 1/R (point charges).
  for (double r : {10.0, 15.0, 20.0}) {
    const auto m = h2_molecule(r);
    const auto basis = chem::BasisSet::build(m, "sto-3g");
    const auto block = ints::eri_shell_quartet(basis.shell(0), basis.shell(0),
                                               basis.shell(1), basis.shell(1));
    EXPECT_NEAR(block(0, 0, 0, 0), 1.0 / r, 2e-4) << "R=" << r;
  }
}

TEST(Eri, TranslationInvariance) {
  auto m1 = h2_molecule();
  auto m2 = h2_molecule();
  m2.translate({1.0, 2.0, -0.5});
  const auto b1 = chem::BasisSet::build(m1, "sto-3g");
  const auto b2 = chem::BasisSet::build(m2, "sto-3g");
  const auto t1 = ints::eri_tensor(b1);
  const auto t2 = ints::eri_tensor(b2);
  for (std::size_t i = 0; i < t1.size(); ++i)
    EXPECT_NEAR(t1[i], t2[i], 1e-11);
}

TEST(Eri, PShellQuartetsSymmetricUnderAxisRelabeling) {
  // A single O atom: (px px|px px) = (py py|py py) = (pz pz|pz pz).
  chem::Molecule m;
  m.add_atom(8, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto& p = basis.shell(2);  // 2p shell
  const auto block = ints::eri_shell_quartet(p, p, p, p);
  EXPECT_NEAR(block(0, 0, 0, 0), block(1, 1, 1, 1), 1e-12);
  EXPECT_NEAR(block(0, 0, 0, 0), block(2, 2, 2, 2), 1e-12);
}

TEST(Eri, DShellBlockShape) {
  chem::Molecule m;
  m.add_atom(6, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "6-31g*");
  const auto& d = basis.shells().back();
  ASSERT_EQ(d.l(), 2);
  const auto& s = basis.shell(0);
  const auto block = ints::eri_shell_quartet(d, s, d, s);
  EXPECT_EQ(block.na, 6u);
  EXPECT_EQ(block.nc, 6u);
  EXPECT_EQ(block.values.size(), 36u);
  // (d_i s | d_i s) diagonal positive.
  for (std::size_t i = 0; i < 6; ++i) EXPECT_GT(block(i, 0, i, 0), 0.0);
}

// ---------------------------------------------------------------- batched

TEST(EriBatched, MatchesScalarOnRaggedMixedStreams) {
  // All shell-pair quartets of a C/O dimer in 6-31g* (s, p and d shells,
  // same-center and cross-center pairs), streamed at lengths that cover
  // a single-quartet batch, sub-width batches, exact-width batches and
  // ragged tails. Every block must match the dense reference kernel
  // (testing::dense_reference_quartet) to 1e-12.
  chem::Molecule m;
  m.add_atom(6, {0, 0, 0});
  m.add_atom(8, {0, 0, 2.1});
  const auto basis = chem::BasisSet::build(m, "6-31g*");
  const std::size_t ns = basis.num_shells();

  std::vector<ints::ShellPairHermite> pairs;
  std::vector<mt::DenseHermitePair> dense;
  pairs.reserve(ns * (ns + 1) / 2);
  for (std::size_t i = 0; i < ns; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      pairs.emplace_back(basis.shell(i), basis.shell(j));
      dense.emplace_back(basis.shell(i), basis.shell(j));
    }
  const std::size_t np = pairs.size();

  std::vector<ints::QuartetRef> stream;
  for (const auto& bra : pairs)
    for (const auto& ket : pairs) stream.push_back({&bra, &ket});

  std::vector<ints::EriBlock> ref(stream.size());
  for (std::size_t q = 0; q < stream.size(); ++q)
    mt::dense_reference_quartet(dense[q / np], dense[q % np], ref[q]);

  for (const std::size_t len :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, std::size_t{9},
        std::size_t{17}, stream.size()}) {
    ASSERT_LE(len, stream.size());
    std::vector<ints::EriBlock> out(len);
    ints::eri_shell_quartet_batched({stream.data(), len}, out.data());
    for (std::size_t q = 0; q < len; ++q) {
      ASSERT_EQ(out[q].values.size(), ref[q].values.size()) << "quartet " << q;
      for (std::size_t v = 0; v < ref[q].values.size(); ++v)
        EXPECT_NEAR(out[q].values[v], ref[q].values[v], 1e-12)
            << "len=" << len << " quartet=" << q << " element=" << v;
    }
  }
}

TEST(EriBatched, RepeatedCallsAreDeterministic) {
  // Same stream twice -> bit-identical blocks (batch formation is a pure
  // function of the stream, and scratch reuse must not leak state).
  const auto m = h2_molecule();
  const auto basis = chem::BasisSet::build(m, "6-31g");
  const std::size_t ns = basis.num_shells();
  std::vector<ints::ShellPairHermite> pairs;
  pairs.reserve(ns * (ns + 1) / 2);
  for (std::size_t i = 0; i < ns; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      pairs.emplace_back(basis.shell(i), basis.shell(j));
  std::vector<ints::QuartetRef> stream;
  for (const auto& bra : pairs)
    for (const auto& ket : pairs) stream.push_back({&bra, &ket});

  std::vector<ints::EriBlock> first(stream.size()), second(stream.size());
  ints::eri_shell_quartet_batched({stream.data(), stream.size()},
                                  first.data());
  ints::eri_shell_quartet_batched({stream.data(), stream.size()},
                                  second.data());
  for (std::size_t q = 0; q < stream.size(); ++q)
    for (std::size_t v = 0; v < first[q].values.size(); ++v)
      EXPECT_EQ(first[q].values[v], second[q].values[v])
          << "quartet=" << q << " element=" << v;
}

TEST(EriBatched, BlockIndependentOfStreamCompanions) {
  // J/K's bit-identity across thread counts and schedules rests on each
  // lane's block being a pure function of its own (bra, ket): the same
  // quartet must give the same bits alone, inside its bra row's stream
  // (the J/K task shape) and inside a shuffled stream that mixes every
  // s/p/d pair class, ragged tails and partly cut-off primitive lanes.
  chem::Molecule m;
  m.add_atom(6, {0, 0, 0});
  m.add_atom(8, {0, 0, 2.1});
  m.add_atom(1, {1.8, 0, -0.7});
  const auto basis = chem::BasisSet::build(m, "6-31g*");
  const std::size_t ns = basis.num_shells();
  std::vector<ints::ShellPairHermite> pairs;
  pairs.reserve(ns * (ns + 1) / 2);
  for (std::size_t i = 0; i < ns; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      pairs.emplace_back(basis.shell(i), basis.shell(j));
  const std::size_t np = pairs.size();

  std::vector<ints::EriBlock> alone(np * np);
  for (std::size_t b = 0; b < np; ++b)
    for (std::size_t k = 0; k < np; ++k) {
      const ints::QuartetRef q{&pairs[b], &pairs[k]};
      ints::eri_shell_quartet_batched({&q, 1}, &alone[b * np + k]);
    }
  const auto expect_same = [&](const ints::EriBlock& got, std::size_t b,
                               std::size_t k, const char* where) {
    const ints::EriBlock& ref = alone[b * np + k];
    ASSERT_EQ(got.values.size(), ref.values.size());
    for (std::size_t v = 0; v < ref.values.size(); ++v)
      ASSERT_EQ(got.values[v], ref.values[v])
          << where << " bra=" << b << " ket=" << k << " element=" << v;
  };

  std::vector<ints::QuartetRef> row;
  std::vector<ints::EriBlock> out(np);
  for (std::size_t b = 0; b < np; ++b) {
    row.clear();
    for (std::size_t k = 0; k <= b; ++k) row.push_back({&pairs[b], &pairs[k]});
    ints::eri_shell_quartet_batched({row.data(), row.size()}, out.data());
    for (std::size_t k = 0; k <= b; ++k) expect_same(out[k], b, k, "row");
  }

  std::vector<std::size_t> order(np * np);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937 rng(7);
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<ints::QuartetRef> mixed;
  for (const std::size_t i : order)
    mixed.push_back({&pairs[i / np], &pairs[i % np]});
  std::vector<ints::EriBlock> mixed_out(mixed.size());
  ints::eri_shell_quartet_batched({mixed.data(), mixed.size()},
                                  mixed_out.data());
  for (std::size_t q = 0; q < order.size(); ++q)
    expect_same(mixed_out[q], order[q] / np, order[q] % np, "mixed");
}
