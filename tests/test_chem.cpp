#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "chem/basis.hpp"
#include "chem/elements.hpp"
#include "chem/molecule.hpp"

namespace chem = mthfx::chem;

TEST(Elements, LookupBySymbolAndNumber) {
  EXPECT_EQ(chem::atomic_number("H"), 1);
  EXPECT_EQ(chem::atomic_number("Li"), 3);
  EXPECT_EQ(chem::atomic_number("O"), 8);
  EXPECT_EQ(chem::atomic_number("S"), 16);
  EXPECT_FALSE(chem::atomic_number("Xx").has_value());
  EXPECT_EQ(chem::element(6).symbol, "C");
  EXPECT_THROW(chem::element(0), std::out_of_range);
  EXPECT_THROW(chem::element(19), std::out_of_range);
}

TEST(Elements, MassesAreSane) {
  for (int z = 1; z <= chem::kMaxZ; ++z) {
    const auto& e = chem::element(z);
    EXPECT_GT(e.mass_amu, 0.9 * z);  // loose physical sanity
    EXPECT_GT(e.bragg_radius_a, 0.0);
  }
}

TEST(Molecule, ElectronCountAndCharge) {
  chem::Molecule m;
  m.add_atom(8, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.8});
  m.add_atom(1, {0, 1.8, 0});
  EXPECT_EQ(m.num_electrons(), 10);
  m.set_charge(1);
  EXPECT_EQ(m.num_electrons(), 9);
}

TEST(Molecule, NuclearRepulsionH2) {
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.4});
  EXPECT_NEAR(m.nuclear_repulsion(), 1.0 / 1.4, 1e-14);
}

TEST(Molecule, XyzRoundTrip) {
  const std::string xyz =
      "3\nwater\nO 0.0 0.0 0.1173\nH 0.0 0.7572 -0.4692\nH 0.0 -0.7572 "
      "-0.4692\n";
  const chem::Molecule m = chem::Molecule::from_xyz(xyz);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.atom(0).z, 8);
  EXPECT_NEAR(m.atom(1).pos[1], 0.7572 * chem::kBohrPerAngstrom, 1e-10);
  const chem::Molecule m2 = chem::Molecule::from_xyz(m.to_xyz("x"));
  for (std::size_t i = 0; i < 3; ++i)
    for (int k = 0; k < 3; ++k)
      EXPECT_NEAR(m2.atom(i).pos[static_cast<std::size_t>(k)],
                  m.atom(i).pos[static_cast<std::size_t>(k)], 1e-8);
}

TEST(Molecule, XyzRejectsMalformed) {
  EXPECT_THROW(chem::Molecule::from_xyz("abc"), std::runtime_error);
  EXPECT_THROW(chem::Molecule::from_xyz("2\nc\nH 0 0 0\n"), std::runtime_error);
  EXPECT_THROW(chem::Molecule::from_xyz("1\nc\nQq 0 0 0\n"),
               std::runtime_error);
}

TEST(Molecule, AppendMergesAtomsAndCharge) {
  chem::Molecule a;
  a.add_atom(3, {0, 0, 0});
  a.set_charge(1);
  chem::Molecule b;
  b.add_atom(8, {0, 0, 2.0});
  b.set_charge(-1);
  a.append(b);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.charge(), 0);
}

TEST(Basis, CartesianCounts) {
  EXPECT_EQ(chem::num_cartesians(0), 1u);
  EXPECT_EQ(chem::num_cartesians(1), 3u);
  EXPECT_EQ(chem::num_cartesians(2), 6u);
  EXPECT_EQ(chem::cartesian_powers(1).size(), 3u);
  const auto d = chem::cartesian_powers(2);
  EXPECT_EQ(d.size(), 6u);
  EXPECT_EQ(d[0].x, 2);  // canonical order starts with xx
  EXPECT_EQ(d[5].z, 2);  // and ends with zz
}

TEST(Basis, Sto3gHydrogenMatchesPublishedExponents) {
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  ASSERT_EQ(basis.num_shells(), 1u);
  const auto& sh = basis.shell(0);
  ASSERT_EQ(sh.num_primitives(), 3u);
  // EMSL STO-3G H exponents: 3.42525091, 0.62391373, 0.16885540.
  EXPECT_NEAR(sh.exponents()[0], 3.42525091, 1e-6);
  EXPECT_NEAR(sh.exponents()[1], 0.62391373, 1e-6);
  EXPECT_NEAR(sh.exponents()[2], 0.16885540, 1e-6);
}

TEST(Basis, Sto3gOxygenLayout) {
  chem::Molecule m;
  m.add_atom(8, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  // 1s, 2s, 2p  ->  1 + 1 + 3 = 5 AOs.
  EXPECT_EQ(basis.num_shells(), 3u);
  EXPECT_EQ(basis.num_functions(), 5u);
  // EMSL O 1s first exponent 130.70932.
  EXPECT_NEAR(basis.shell(0).exponents()[0], 130.70932, 1e-3);
  // EMSL O 2sp first exponent 5.0331513.
  EXPECT_NEAR(basis.shell(1).exponents()[0], 5.0331513, 1e-5);
}

TEST(Basis, SulfurHasThreeShellLayers) {
  chem::Molecule m;
  m.add_atom(16, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  // 1s, 2s, 2p, 3s, 3p -> 1+1+3+1+3 = 9 AOs.
  EXPECT_EQ(basis.num_functions(), 9u);
}

TEST(Basis, SixThreeOneGStarAddsPolarization) {
  chem::Molecule m;
  m.add_atom(6, {0, 0, 0});
  const auto plain = chem::BasisSet::build(m, "6-31g");
  const auto star = chem::BasisSet::build(m, "6-31g*");
  EXPECT_EQ(plain.num_functions(), 9u);      // 3s + 2p sets = 3 + 6
  EXPECT_EQ(star.num_functions(), 15u);      // + 6 Cartesian d
  EXPECT_EQ(star.shells().back().l(), 2);
}

TEST(Basis, UnknownBasisThrows) {
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  EXPECT_THROW(chem::BasisSet::build(m, "def2-qzvpp"), std::runtime_error);
}

TEST(Basis, EvaluateSFunctionAtCenter) {
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  std::vector<double> v, dx, dy, dz;
  basis.evaluate_with_gradient({0, 0, 0}, v, dx, dy, dz);
  ASSERT_EQ(v.size(), 1u);
  // Contracted STO-3G 1s at its center: approaches the STO value
  // sqrt(zeta^3/pi) ~ 0.78 from below (Gaussians have no cusp).
  EXPECT_GT(v[0], 0.4);
  EXPECT_LT(v[0], std::sqrt(std::pow(1.24, 3) / M_PI));
}

TEST(Basis, GradientMatchesFiniteDifference) {
  chem::Molecule m;
  m.add_atom(8, {0.1, -0.2, 0.3});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const chem::Vec3 pt{0.7, 0.4, -0.5};
  std::vector<double> val, dx, dy, dz;
  basis.evaluate_with_gradient(pt, val, dx, dy, dz);

  const double h = 1e-6;
  std::vector<double> plus, minus, sx, sy, sz;
  for (int dim = 0; dim < 3; ++dim) {
    chem::Vec3 p = pt, q = pt;
    p[static_cast<std::size_t>(dim)] += h;
    q[static_cast<std::size_t>(dim)] -= h;
    basis.evaluate_with_gradient(p, plus, sx, sy, sz);
    basis.evaluate_with_gradient(q, minus, sx, sy, sz);
    const auto& grad = dim == 0 ? dx : (dim == 1 ? dy : dz);
    for (std::size_t i = 0; i < val.size(); ++i)
      EXPECT_NEAR(grad[i], (plus[i] - minus[i]) / (2 * h), 1e-6);
  }
}

TEST(Basis, HessianMatchesFiniteDifference) {
  // Per-shell second derivatives against central differences of the
  // per-shell gradients, on a basis with d shells, at a point off the
  // nucleus so every Cartesian factor is live.
  chem::Molecule m;
  m.add_atom(8, {0.1, -0.2, 0.3});
  const auto basis = chem::BasisSet::build(m, "6-31g*");
  ASSERT_EQ(basis.shells().back().l(), 2);
  const chem::Vec3 pt{0.7, 0.4, -0.5};
  const double h = 1e-5;
  for (std::size_t s = 0; s < basis.num_shells(); ++s) {
    const std::size_t nf = basis.shell(s).num_functions();
    // hess[k * nf + c] in xx, xy, xz, yy, yz, zz order.
    std::vector<double> hess(6 * nf);
    basis.evaluate_shell_with_hessian(s, pt, &hess[0], &hess[nf],
                                      &hess[2 * nf], &hess[3 * nf],
                                      &hess[4 * nf], &hess[5 * nf]);
    // fd[dim][k][c]: d/d(dim) of the k-th gradient component.
    std::vector<double> fd(9 * nf);
    for (std::size_t dim = 0; dim < 3; ++dim) {
      chem::Vec3 p = pt, q = pt;
      p[dim] += h;
      q[dim] -= h;
      std::vector<double> vp(nf), vq(nf), gp(3 * nf), gq(3 * nf);
      basis.evaluate_shell_with_gradient(s, p, vp.data(), &gp[0], &gp[nf],
                                         &gp[2 * nf]);
      basis.evaluate_shell_with_gradient(s, q, vq.data(), &gq[0], &gq[nf],
                                         &gq[2 * nf]);
      for (std::size_t i = 0; i < 3 * nf; ++i)
        fd[dim * 3 * nf + i] = (gp[i] - gq[i]) / (2 * h);
    }
    // (row, col) of each Hessian block in the gradient difference table.
    const std::size_t rc[6][2] = {{0, 0}, {0, 1}, {0, 2},
                                  {1, 1}, {1, 2}, {2, 2}};
    for (std::size_t k = 0; k < 6; ++k)
      for (std::size_t c = 0; c < nf; ++c) {
        const double d_ab = fd[rc[k][0] * 3 * nf + rc[k][1] * nf + c];
        const double d_ba = fd[rc[k][1] * 3 * nf + rc[k][0] * nf + c];
        EXPECT_NEAR(hess[k * nf + c], d_ab, 1e-8) << "shell " << s;
        EXPECT_NEAR(hess[k * nf + c], d_ba, 1e-8) << "shell " << s;
      }
  }
}

// The basis name is a std::string, not a const char*: gtest prints a
// pointer parameter with its address, which would put a per-run value into
// the discovered test names.
class ShellNormalization
    : public ::testing::TestWithParam<std::tuple<int, std::string>> {};

TEST_P(ShellNormalization, ContractedSelfOverlapIsOne) {
  // For every element/basis pair, numerically integrate the square of the
  // first component of each shell over a radial grid and expect 1.
  const auto [z, name] = GetParam();
  chem::Molecule m;
  m.add_atom(z, {0, 0, 0});
  const auto basis = chem::BasisSet::build(m, name);
  for (const auto& sh : basis.shells()) {
    // Self-overlap of the (l,0,0) component along x with Gauss-style
    // brute-force integration on a 3-D grid is expensive; instead use the
    // closed form the constructor normalizes against, rebuilt here
    // independently.
    double self = 0.0;
    const int l = sh.l();
    for (std::size_t p = 0; p < sh.num_primitives(); ++p)
      for (std::size_t q = 0; q < sh.num_primitives(); ++q) {
        const double g = sh.exponents()[p] + sh.exponents()[q];
        const double ovl = chem::odd_double_factorial(l) /
                           std::pow(2.0 * g, l) *
                           std::pow(M_PI / g, 1.5);
        self += sh.norm_coef(p, 0) * sh.norm_coef(q, 0) * ovl;
      }
    EXPECT_NEAR(self, 1.0, 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ElementsBases, ShellNormalization,
    ::testing::Values(std::make_tuple(1, "sto-3g"), std::make_tuple(3, "sto-3g"),
                      std::make_tuple(6, "sto-3g"), std::make_tuple(8, "sto-3g"),
                      std::make_tuple(16, "sto-3g"), std::make_tuple(1, "6-31g"),
                      std::make_tuple(6, "6-31g"), std::make_tuple(8, "6-31g"),
                      std::make_tuple(6, "6-31g*"),
                      std::make_tuple(8, "6-31g*")));
