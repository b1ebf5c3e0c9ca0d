#include <gtest/gtest.h>

#include "app/driver.hpp"
#include "app/input.hpp"
#include "chem/basis.hpp"
#include "chem/elements.hpp"
#include "obs/trace.hpp"
#include "scf/gradient.hpp"
#include "scf/rhf.hpp"
#include "scf/rks.hpp"

namespace app = mthfx::app;
namespace chem = mthfx::chem;
namespace scf = mthfx::scf;

namespace {

const char* kWaterInput = R"(
# water single point
method hf
basis sto-3g
task energy
geometry angstrom
O 0.0 0.0 0.1173
H 0.0 0.7572 -0.4692
H 0.0 -0.7572 -0.4692
end
)";

}  // namespace

TEST(Input, ParsesFullExample) {
  const auto in = app::parse_input(kWaterInput);
  EXPECT_EQ(in.method, "hf");
  EXPECT_EQ(in.basis, "sto-3g");
  EXPECT_EQ(in.task, app::Task::kEnergy);
  EXPECT_EQ(in.molecule.size(), 3u);
  EXPECT_EQ(in.molecule.atom(0).z, 8);
  EXPECT_NEAR(in.molecule.atom(1).pos.y, 0.7572 * chem::kBohrPerAngstrom,
              1e-10);
}

TEST(Input, BohrUnits) {
  const auto in = app::parse_input(
      "geometry bohr\nH 0 0 0\nH 0 0 1.4\nend\n");
  EXPECT_NEAR(in.molecule.atom(1).pos.z, 1.4, 1e-14);
}

TEST(Input, DefaultsApplied) {
  const auto in = app::parse_input("geometry bohr\nHe 0 0 0\nend\n");
  EXPECT_EQ(in.method, "hf");
  EXPECT_EQ(in.charge, 0);
  EXPECT_EQ(in.multiplicity, 1);
  EXPECT_DOUBLE_EQ(in.eps_schwarz, 1e-10);
}

TEST(Input, ChargeAndMultiplicity) {
  const auto in = app::parse_input(
      "charge -1\nmultiplicity 1\ngeometry angstrom\nO 0 0 0\nH 0 0 0.96\n"
      "end\n");
  EXPECT_EQ(in.molecule.num_electrons(), 10);
}

TEST(Input, CommentsAndBlankLines) {
  const auto in = app::parse_input(
      "# leading comment\n\nmethod pbe0  # trailing\n\n"
      "geometry bohr\nH 0 0 0  # atom\nH 0 0 1.4\nend\n");
  EXPECT_EQ(in.method, "pbe0");
  EXPECT_EQ(in.molecule.size(), 2u);
}

TEST(Input, Errors) {
  EXPECT_THROW(app::parse_input("method\n"), std::runtime_error);
  EXPECT_THROW(app::parse_input("frobnicate yes\n"), std::runtime_error);
  EXPECT_THROW(app::parse_input("geometry parsec\nH 0 0 0\nend\n"),
               std::runtime_error);
  EXPECT_THROW(app::parse_input("geometry bohr\nXx 0 0 0\nend\n"),
               std::runtime_error);
  EXPECT_THROW(app::parse_input("geometry bohr\nH 0 0\nend\n"),
               std::runtime_error);
  EXPECT_THROW(app::parse_input("geometry bohr\nH 0 0 0\n"),  // no end
               std::runtime_error);
  EXPECT_THROW(app::parse_input("method hf\n"),  // no geometry
               std::runtime_error);
  EXPECT_THROW(app::parse_input(  // parity mismatch
                   "multiplicity 2\ngeometry bohr\nHe 0 0 0\nend\n"),
               std::runtime_error);
  EXPECT_THROW(app::parse_input("task optimize\ngeometry bohr\nH 0 0 0\nH 0 "
                                "0 1\nend\n"),
               std::runtime_error);
}

TEST(Input, RejectsTrailingTokens) {
  // Two values for one keyword.
  EXPECT_THROW(app::parse_input(
                   "method hf pbe0\ngeometry bohr\nH 0 0 0\nH 0 0 1.4\nend\n"),
               std::runtime_error);
  // Junk after the geometry unit.
  EXPECT_THROW(
      app::parse_input("geometry bohr extra\nH 0 0 0\nH 0 0 1.4\nend\n"),
      std::runtime_error);
  // A fourth coordinate on an atom line.
  EXPECT_THROW(
      app::parse_input("geometry bohr\nH 0 0 0 0\nH 0 0 1.4\nend\n"),
      std::runtime_error);
  // Junk after 'end'.
  EXPECT_THROW(
      app::parse_input("geometry bohr\nH 0 0 0\nH 0 0 1.4\nend geometry\n"),
      std::runtime_error);
}

TEST(Input, TrailingTokenErrorsNameTheLine) {
  try {
    app::parse_input("method hf\ngeometry bohr\nH 0 0 0 junk\nend\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("junk"), std::string::npos) << msg;
  }
}

TEST(Input, TrailingCommentsStillAccepted) {
  // Comments are stripped before tokenization, so they are not trailing
  // junk.
  const auto in = app::parse_input(
      "method hf  # method comment\ngeometry bohr  # unit comment\n"
      "H 0 0 0  # atom comment\nH 0 0 1.4\nend  # end comment\n");
  EXPECT_EQ(in.method, "hf");
  EXPECT_EQ(in.molecule.size(), 2u);
}

TEST(Input, RejectsDuplicateKeywords) {
  // Repeating any keyword is a parse error naming the offending key.
  try {
    app::parse_input(
        "method hf\nmethod pbe0\ngeometry bohr\nH 0 0 0\nH 0 0 1.4\nend\n");
    FAIL() << "expected duplicate-keyword rejection";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("duplicate keyword 'method'"), std::string::npos)
        << msg;
  }
  EXPECT_THROW(app::parse_input("charge 0\ncharge -1\n"
                                "geometry bohr\nH 0 0 0\nH 0 0 1.4\nend\n"),
               std::runtime_error);
  EXPECT_THROW(app::parse_input("geometry bohr\nH 0 0 0\nH 0 0 1.4\nend\n"
                                "geometry bohr\nHe 0 0 0\nend\n"),
               std::runtime_error);
}

TEST(Input, ThreadsKeyword) {
  const auto in = app::parse_input(
      "threads 3\ngeometry bohr\nH 0 0 0\nH 0 0 1.4\nend\n");
  EXPECT_EQ(in.num_threads, 3u);
  EXPECT_THROW(app::parse_input(
                   "threads -2\ngeometry bohr\nH 0 0 0\nH 0 0 1.4\nend\n"),
               std::runtime_error);
}

TEST(Driver, WaterHfEnergy) {
  const auto in = app::parse_input(kWaterInput);
  const auto r = app::run(in);
  EXPECT_TRUE(r.ok);
  EXPECT_NEAR(r.energy, -74.963, 1e-2);
  EXPECT_NE(r.report.find("SCF(hf) energy"), std::string::npos);
  EXPECT_NE(r.report.find("dipole moment"), std::string::npos);
}

TEST(Driver, GradientTask) {
  const auto r = app::run(app::parse_input(
      "method hf\ntask gradient\ngeometry bohr\nH 0 0 0\nH 0 0 1.4\nend\n"));
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.report.find("gradient (Ha/bohr)"), std::string::npos);
}

TEST(Driver, OpenShellAutoSelectsUks) {
  const auto r = app::run(app::parse_input(
      "method hf\nmultiplicity 2\ngeometry bohr\nLi 0 0 0\nend\n"));
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.report.find("UKS(hf)"), std::string::npos);
  EXPECT_NEAR(r.energy, -7.3155, 1e-2);
}

TEST(Driver, StructuredResultCarriesTypedFields) {
  const auto in = app::parse_input(kWaterInput);
  const auto s = app::run_structured(in);
  EXPECT_TRUE(s.ok);
  EXPECT_TRUE(s.converged);
  EXPECT_EQ(s.reference, "rks");
  EXPECT_GT(s.scf_iterations, 0u);
  EXPECT_GT(s.dipole_debye, 0.5);      // water has a real dipole
  EXPECT_GT(s.homo_lumo_gap_ev, 1.0);  // closed-shell gap
  // The thin run() wrapper reports the same numbers.
  EXPECT_EQ(app::run(in).energy, s.energy);
}

TEST(Driver, StructuredGradientTask) {
  const auto s = app::run_structured(app::parse_input(
      "method hf\ntask gradient\ngeometry bohr\nH 0 0 0\nH 0 0 1.4\nend\n"));
  EXPECT_TRUE(s.ok);
  ASSERT_EQ(s.gradient.size(), 2u);
  // Translational invariance: forces cancel along the bond axis.
  EXPECT_NEAR(s.gradient[0][2] + s.gradient[1][2], 0.0, 1e-8);
  // The task reuses its rks("hf") solve; no second SCF, same forces as
  // the RHF driver's gradient.
  chem::Molecule m;
  m.add_atom(1, {0, 0, 0});
  m.add_atom(1, {0, 0, 1.4});
  const auto basis = chem::BasisSet::build(m, "sto-3g");
  const auto ref = scf::rhf_gradient(m, basis, scf::rhf(m, basis));
  for (std::size_t a = 0; a < 2; ++a)
    for (std::size_t d = 0; d < 3; ++d)
      EXPECT_NEAR(s.gradient[a][d], ref[a][d], 1e-8);

  // Two waters 5 A apart, where Schwarz screening does drop derivative
  // quartets: at the SCF's eps_schwarz (1e-10, quartets kept down to
  // 1e-12) the forces move by ~3e-11 against rhf_gradient's own 1e-12
  // threshold. The task must screen like rhf_gradient; its full-build
  // solve equals rhf without incremental Fock, so only summation-order
  // noise (~1e-14) remains under the 1e-12 bound.
  const auto dimer_in = app::parse_input(
      "method hf\ntask gradient\ngeometry angstrom\n"
      "O 0 0 0.1173\nH 0 0.7572 -0.4692\nH 0 -0.7572 -0.4692\n"
      "O 5 0 0.1173\nH 5 0.7572 -0.4692\nH 5 -0.7572 -0.4692\nend\n");
  const auto dimer = app::run_structured(dimer_in);
  ASSERT_TRUE(dimer.ok);
  const auto dimer_basis = chem::BasisSet::build(dimer_in.molecule, "sto-3g");
  scf::ScfOptions full_builds;
  full_builds.incremental_fock = false;
  const auto dimer_ref = scf::rhf_gradient(
      dimer_in.molecule, dimer_basis,
      scf::rhf(dimer_in.molecule, dimer_basis, full_builds));
  ASSERT_EQ(dimer.gradient.size(), dimer_ref.size());
  for (std::size_t a = 0; a < dimer_ref.size(); ++a)
    for (std::size_t d = 0; d < 3; ++d)
      EXPECT_NEAR(dimer.gradient[a][d], dimer_ref[a][d], 1e-12);
}

TEST(Driver, Pbe0GradientTask) {
  // DFT methods route through ks_gradient (no finite-difference path).
  const auto s = app::run_structured(app::parse_input(
      "method pbe0\ntask gradient\ngeometry bohr\nH 0 0 0\nH 0 0 1.4\nend\n"));
  EXPECT_TRUE(s.ok);
  ASSERT_EQ(s.gradient.size(), 2u);
  // Grid-quadrature noise loosens the cancellation vs. the RHF case.
  EXPECT_NEAR(s.gradient[0][2] + s.gradient[1][2], 0.0, 1e-6);
  // Stretched past equilibrium: the bond pulls inward from both ends.
  EXPECT_LT(s.gradient[0][2], 0.0);
  EXPECT_GT(s.gradient[1][2], 0.0);
}

TEST(Driver, KsGradientTaskBuildsOneGridAndPairList) {
  // The solve and the gradient share one grid, one pair list and one
  // pool; the forces are those of the unshared rks + ks_gradient path.
  const app::Input input = app::parse_input(
      "method pbe0\ntask gradient\nthreads 2\ngrid_radial 30\n"
      "grid_angular 26\ngeometry angstrom\nO 0.0 0.0 0.1173\n"
      "H 0.0 0.7572 -0.4692\nH 0.0 -0.7572 -0.4692\nend\n");
  mthfx::obs::Trace& trace = mthfx::obs::global_trace();
  trace.clear();
  trace.set_enabled(true);
  const auto s = app::run_structured(input);
  const std::uint64_t grids = trace.count("dft.grid");
  trace.set_enabled(false);
  trace.clear();
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(grids, 1u);

  scf::KsOptions opts;
  opts.functional = input.method;
  opts.scf.hfx.eps_schwarz = input.eps_schwarz;
  opts.scf.hfx.num_threads = input.num_threads;
  opts.grid.radial_points = input.grid_radial;
  opts.grid.angular_points = input.grid_angular;
  const auto basis = chem::BasisSet::build(input.molecule, input.basis);
  const auto r = scf::rks(input.molecule, basis, opts);
  const auto ref = scf::ks_gradient(input.molecule, basis, opts, r);
  ASSERT_EQ(s.gradient.size(), ref.size());
  for (std::size_t a = 0; a < ref.size(); ++a)
    for (std::size_t d = 0; d < 3; ++d)
      EXPECT_EQ(s.gradient[a][d], ref[a][d]) << "atom " << a << " dir " << d;
}

TEST(Driver, MdTask) {
  const auto r = app::run(app::parse_input(
      "method hf\ntask md\nmd_steps 3\nmd_timestep_fs 0.15\n"
      "geometry bohr\nH 0 0 0\nH 0 0 1.5\nend\n"));
  EXPECT_TRUE(r.ok);
  EXPECT_NE(r.report.find("BOMD"), std::string::npos);
  EXPECT_NE(r.report.find("energy drift"), std::string::npos);
}
