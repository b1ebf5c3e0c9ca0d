// Differential tests: the production screened/threaded HFX paths versus
// the slow-but-obviously-correct oracles in src/testing, across every
// schedule policy and several thread counts, on seeded generated inputs.
// This is the layer that turns "the fast path looks right on water"
// into "the fast path agrees with brute force on anything we can draw".

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "hfx/fock_builder.hpp"
#include "ints/deriv.hpp"
#include "ints/eri.hpp"
#include "ints/eri_batch.hpp"
#include "linalg/matrix.hpp"
#include "scf/rhf.hpp"
#include "support/property_gtest.hpp"
#include "testing/generators.hpp"
#include "testing/invariants.hpp"
#include "testing/oracles.hpp"
#include "testing/property.hpp"
#include "workload/geometries.hpp"

namespace chem = mthfx::chem;
namespace hfx = mthfx::hfx;
namespace la = mthfx::linalg;
namespace mt = mthfx::testing;
namespace scf = mthfx::scf;

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

const char* schedule_name(hfx::HfxSchedule s) {
  switch (s) {
    case hfx::HfxSchedule::kDynamicBag: return "dynamic-bag";
    case hfx::HfxSchedule::kStaticBlock: return "static-block";
    case hfx::HfxSchedule::kStaticCyclic: return "static-cyclic";
    case hfx::HfxSchedule::kWorkStealing: return "work-stealing";
  }
  return "?";
}

// Synthetic s, p, d and f shells (no bundled basis has f), built like
// bench A7's shells at randomly jittered generic centres. Each shell has
// one primitive: the dense oracle's (ff|ff) quartets cost ~100x more at
// three, and contraction is already covered by the 6-31g* basis. The two
// f shells share their exponent, so f pairs fill batched lanes together.
std::vector<chem::Shell> f_shell_set(mt::Rng& rng) {
  const auto shell = [&rng](int l, chem::Vec3 c, double exponent) {
    const chem::Vec3 at{c.x + rng.uniform(-0.1, 0.1),
                        c.y + rng.uniform(-0.1, 0.1),
                        c.z + rng.uniform(-0.1, 0.1)};
    return chem::Shell(l, 0, at, {exponent}, {1.0});
  };
  const double f_exponent = rng.uniform(0.3, 2.0);
  return {shell(0, {0.0, 0.0, 0.0}, rng.uniform(0.3, 2.0)),
          shell(1, {0.4, -0.3, 0.8}, rng.uniform(0.3, 2.0)),
          shell(2, {-0.7, 0.9, 0.2}, rng.uniform(0.3, 2.0)),
          shell(3, {0.3, 0.6, -0.5}, f_exponent),
          shell(3, {-0.6, -0.4, 0.7}, f_exponent)};
}

// The batched kernel against the dense reference oracle on every
// bra >= ket quartet of the shell pairs of `shells`, one stream per bra
// row (the J/K task shape).
std::string rows_vs_oracle(const std::vector<chem::Shell>& shells) {
  namespace ints = mthfx::ints;
  std::vector<ints::ShellPairHermite> sparse;
  std::vector<mt::DenseHermitePair> dense;
  for (std::size_t sa = 0; sa < shells.size(); ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb) {
      sparse.emplace_back(shells[sa], shells[sb]);
      dense.emplace_back(shells[sa], shells[sb]);
    }

  std::vector<ints::QuartetRef> row;
  std::vector<ints::EriBlock> out(sparse.size());
  ints::EriBlock bd;
  for (std::size_t bra = 0; bra < sparse.size(); ++bra) {
    row.clear();
    for (std::size_t ket = 0; ket <= bra; ++ket)
      row.push_back({&sparse[bra], &sparse[ket]});
    ints::eri_shell_quartet_batched({row.data(), row.size()}, out.data());
    for (std::size_t ket = 0; ket <= bra; ++ket) {
      const ints::EriBlock& bs = out[ket];
      mt::dense_reference_quartet(dense[bra], dense[ket], bd);
      for (std::size_t i = 0; i < bs.values.size(); ++i)
        if (std::abs(bs.values[i] - bd.values[i]) > 1e-12)
          return "quartet (" + std::to_string(bra) + "," +
                 std::to_string(ket) + ") element " + std::to_string(i) +
                 ": batched " + fmt(bs.values[i]) + " vs dense " +
                 fmt(bd.values[i]);
    }
  }
  return "";
}

// The batched kernel against the dense reference oracle, quartet by
// quartet, on random slices of the shuffled stream of every bra >= ket
// quartet over the shell pairs of `shells`.
std::string batched_vs_oracle(mt::Rng& rng,
                              const std::vector<chem::Shell>& shells) {
  namespace ints = mthfx::ints;
  std::vector<ints::ShellPairHermite> batched;
  std::vector<mt::DenseHermitePair> dense;
  const std::size_t ns = shells.size();
  batched.reserve(ns * (ns + 1) / 2);
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb) {
      batched.emplace_back(shells[sa], shells[sb]);
      dense.emplace_back(shells[sa], shells[sb]);
    }

  // Shuffled full quartet stream: quartet (bra, ket) with ket <= bra,
  // encoded as bra * npairs + ket.
  const std::size_t npairs = batched.size();
  std::vector<std::size_t> quartets;
  for (std::size_t bra = 0; bra < npairs; ++bra)
    for (std::size_t ket = 0; ket <= bra; ++ket)
      quartets.push_back(bra * npairs + ket);
  for (std::size_t i = quartets.size(); i > 1; --i)
    std::swap(quartets[i - 1], quartets[rng.index(i)]);

  // Random slice lengths, always including 1 and a ragged tail.
  std::vector<std::size_t> lens;
  lens.push_back(1);
  lens.push_back(1 + rng.index(8));
  lens.push_back(std::min(quartets.size(), 8 + 1 + rng.index(16)));
  lens.push_back(quartets.size());
  for (const std::size_t len : lens) {
    std::vector<ints::QuartetRef> stream;
    for (std::size_t q = 0; q < len; ++q)
      stream.push_back({&batched[quartets[q] / npairs],
                        &batched[quartets[q] % npairs]});
    std::vector<ints::EriBlock> out(len);
    ints::eri_shell_quartet_batched({stream.data(), len}, out.data());

    ints::EriBlock ref_dense;
    for (std::size_t q = 0; q < len; ++q) {
      mt::dense_reference_quartet(dense[quartets[q] / npairs],
                                  dense[quartets[q] % npairs], ref_dense);
      for (std::size_t i = 0; i < ref_dense.values.size(); ++i) {
        const double b = out[q].values[i];
        if (std::abs(b - ref_dense.values[i]) > 1e-12)
          return "len " + std::to_string(len) + " quartet " +
                 std::to_string(q) + " element " + std::to_string(i) +
                 ": batched " + fmt(b) + " vs dense " +
                 fmt(ref_dense.values[i]);
      }
    }
  }
  return "";
}

// The derivative ERI kernel against the reference oracle on every
// bra >= ket quartet of the shell pairs of `shells`: all three centers,
// every direction and element.
std::string gradient_vs_oracle(const std::vector<chem::Shell>& shells) {
  namespace ints = mthfx::ints;
  std::vector<std::pair<std::size_t, std::size_t>> ids;
  std::vector<ints::ShellPairDeriv> pairs;
  for (std::size_t sa = 0; sa < shells.size(); ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb) {
      ids.emplace_back(sa, sb);
      pairs.emplace_back(shells[sa], shells[sb]);
    }

  ints::EriGradBlocks fast;
  for (std::size_t bra = 0; bra < pairs.size(); ++bra)
    for (std::size_t ket = 0; ket <= bra; ++ket) {
      ints::eri_gradient_quartet(pairs[bra], pairs[ket], fast);
      const ints::EriGradBlocks ref = mt::reference_eri_gradient_blocks(
          shells[ids[bra].first], shells[ids[bra].second],
          shells[ids[ket].first], shells[ids[ket].second]);
      for (std::size_t center = 0; center < 3; ++center)
        for (std::size_t dir = 0; dir < 3; ++dir) {
          const std::vector<double>& f = fast.g[center][dir];
          const std::vector<double>& r = ref.g[center][dir];
          if (f.size() != r.size())
            return "quartet (" + std::to_string(bra) + "," +
                   std::to_string(ket) + ") block size " +
                   std::to_string(f.size()) + " vs " + std::to_string(r.size());
          for (std::size_t i = 0; i < f.size(); ++i)
            if (std::abs(f[i] - r[i]) > 1e-12)
              return "quartet (" + std::to_string(bra) + "," +
                     std::to_string(ket) + ") center " +
                     std::to_string(center) + " dir " + std::to_string(dir) +
                     " element " + std::to_string(i) + ": kernel " +
                     fmt(f[i]) + " vs reference " + fmt(r[i]);
        }
    }
  return "";
}

}  // namespace

// The derivative ERI kernel against the per-primitive reference on d
// shells with contracted primitives (6-31g* water), on the Li2O2 STO-3G
// basis the MD fragments use, and on the synthetic s-f shell set, which
// runs the kernel's tables at full capacity (f x f pairs, order L+1).
// One fixed draw: the reference costs about a millisecond per quartet.
TEST(Differential, EriGradientMatchesReference) {
  mt::Rng rng(20170);
  const auto water = mt::jittered(rng, mthfx::workload::water(), 0.08);
  EXPECT_EQ(gradient_vs_oracle(chem::BasisSet::build(water, "6-31g*").shells()),
            "")
      << "6-31g* water";
  EXPECT_EQ(gradient_vs_oracle(
                chem::BasisSet::build(mthfx::workload::lithium_peroxide(),
                                      "sto-3g")
                    .shells()),
            "")
      << "sto-3g Li2O2";
  EXPECT_EQ(gradient_vs_oracle(f_shell_set(rng)), "") << "s-f shell set";
}

// The production tensor builder (pair-data reuse) against the naive
// one-pass oracle, element by element.
TEST(Differential, EriTensorMatchesNaiveOnePass) {
  MTHFX_PROPERTY(
      "Differential.EriTensorMatchesNaiveOnePass",
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::random_molecule(rng);
        const auto name = mt::random_basis_name(rng, mol);
        const auto basis = chem::BasisSet::build(mol, name);
        const auto fast = mthfx::ints::eri_tensor(basis);
        const auto naive = mt::naive_eri_tensor(basis);
        if (fast.size() != naive.size())
          return "tensor size mismatch";
        for (std::size_t i = 0; i < fast.size(); ++i)
          if (std::abs(fast[i] - naive[i]) > 1e-12)
            return "tensor element " + std::to_string(i) + " differs: " +
                   fmt(fast[i]) + " vs naive " + fmt(naive[i]);
        return "";
      });
}

// The explicit-orbit-deduplication J/K against the dense contraction —
// two independent derivations of the same matrices from one tensor.
TEST(Differential, OrbitOracleMatchesDenseContraction) {
  MTHFX_PROPERTY(
      "Differential.OrbitOracleMatchesDenseContraction",
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::random_molecule(rng);
        const auto name = mt::random_basis_name(rng, mol);
        const auto basis = chem::BasisSet::build(mol, name);
        const auto p = mt::random_symmetric_density(rng, basis.num_functions());
        const auto tensor = mt::naive_eri_tensor(basis);
        const auto dense = mt::contract_jk(basis, tensor, p);
        const auto orbit = mt::orbit_jk_reference(basis, tensor, p);
        const double jdiff = la::max_abs(dense.j - orbit.j);
        const double kdiff = la::max_abs(dense.k - orbit.k);
        if (jdiff > 1e-11 || kdiff > 1e-11)
          return "orbit oracle disagrees with dense contraction: |dJ| " +
                 fmt(jdiff) + " |dK| " + fmt(kdiff);
        return "";
      });
}

// The paper's central claim, as a property: the screened, threaded,
// task-parallel build agrees with unscreened brute force within the
// eps_schwarz-derived bound — for every schedule policy.
TEST(Differential, ScreenedBuildMatchesBruteForceAcrossSchedules) {
  MTHFX_PROPERTY(
      "Differential.ScreenedBuildMatchesBruteForceAcrossSchedules",
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::random_molecule(rng);
        const auto name = mt::random_basis_name(rng, mol);
        const auto basis = chem::BasisSet::build(mol, name);
        const auto p = mt::random_symmetric_density(rng, basis.num_functions());
        const auto ref = mt::dense_jk_reference(basis, p);
        const double pmax = la::max_abs(p);

        hfx::HfxOptions opts = mt::random_hfx_options(rng);
        for (const auto schedule : mt::all_schedules()) {
          opts.schedule = schedule;
          hfx::FockBuilder builder(basis, opts);
          const auto jk = builder.coulomb_exchange(p);
          const double kerr = la::max_abs(jk.k - ref.k);
          const double jerr = la::max_abs(jk.j - ref.j);
          const double bound =
              mt::screening_error_bound(jk.stats, opts, pmax);
          if (kerr > bound || jerr > bound)
            return std::string("schedule ") + schedule_name(schedule) +
                   " (threads " + std::to_string(opts.num_threads) +
                   ", eps " + fmt(opts.eps_schwarz) + "): |dK| " + fmt(kerr) +
                   " |dJ| " + fmt(jerr) + " exceeds bound " + fmt(bound);
        }
        return "";
      });
}

// Thread count must be invisible in the result, bit for bit, for every
// schedule, on generated inputs.
TEST(Differential, ThreadCountIsInvisibleAcrossSchedules) {
  MTHFX_PROPERTY(
      "Differential.ThreadCountIsInvisibleAcrossSchedules",
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::random_molecule(rng);
        const auto name = mt::random_basis_name(rng, mol);
        const auto basis = chem::BasisSet::build(mol, name);
        const auto p = mt::random_symmetric_density(rng, basis.num_functions());

        hfx::HfxOptions serial;
        serial.eps_schwarz = 1e-12;
        serial.num_threads = 1;
        const auto k0 = hfx::FockBuilder(basis, serial).exchange(p).k;

        // One random schedule and thread count per case; the sweep over
        // all combinations lives in test_hfx's fixed-seed regression.
        hfx::HfxOptions par = serial;
        par.schedule = mt::all_schedules()[rng.index(4)];
        par.num_threads = static_cast<std::size_t>(1) << (1 + rng.index(3));
        const auto kp = hfx::FockBuilder(basis, par).exchange(p).k;
        const double diff = la::max_abs(kp - k0);
        if (diff != 0.0)
          return std::string("schedule ") + schedule_name(par.schedule) +
                 " at " + std::to_string(par.num_threads) +
                 " threads drifted from serial by " + fmt(diff);
        return "";
      });
}

// The kernel on the sparse pair layout, run one bra row per stream,
// against the dense reference oracle, quartet by quartet, on a basis
// with s, p and d shells (6-31g* puts Cartesian d
// on O) and on a synthetic set that adds f shells. The oracle expands
// the pairs itself with ints::HermiteE, so agreement to 1e-12 checks the
// production pair expansion too.
TEST(Differential, SparseKernelMatchesDenseReferenceOnMixedShells) {
  MTHFX_PROPERTY_N(
      "Differential.SparseKernelMatchesDenseReferenceOnMixedShells", 6,
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::jittered(rng, mthfx::workload::water(), 0.08);
        const auto basis = chem::BasisSet::build(mol, "6-31g*");
        const std::string err = rows_vs_oracle(basis.shells());
        if (!err.empty()) return "6-31g* water: " + err;
        const std::string ferr = rows_vs_oracle(f_shell_set(rng));
        return ferr.empty() ? "" : "s-f shell set: " + ferr;
      });
}

// Full builder on a d-shell basis, every schedule, at tight screening:
// the sparse kernel + ket-side intermediates + early-exit ket loop must
// reproduce the dense J/K oracle to 1e-12.
TEST(Differential, MixedShellBuildMatchesOracleAcrossSchedules) {
  MTHFX_PROPERTY_N(
      "Differential.MixedShellBuildMatchesOracleAcrossSchedules", 6,
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::jittered(rng, mthfx::workload::water(), 0.08);
        const auto basis = chem::BasisSet::build(mol, "6-31g*");
        const auto p = mt::random_symmetric_density(rng, basis.num_functions());
        const auto ref = mt::dense_jk_reference(basis, p);

        hfx::HfxOptions opts;
        opts.eps_schwarz = 1e-12;
        opts.num_threads = 1 + rng.index(8);
        for (const auto schedule : mt::all_schedules()) {
          opts.schedule = schedule;
          hfx::FockBuilder builder(basis, opts);
          const auto jk = builder.coulomb_exchange(p);
          const double kerr = la::max_abs(jk.k - ref.k);
          const double jerr = la::max_abs(jk.j - ref.j);
          if (kerr > 1e-12 || jerr > 1e-12)
            return std::string("schedule ") + schedule_name(schedule) +
                   " (threads " + std::to_string(opts.num_threads) +
                   "): |dK| " + fmt(kerr) + " |dJ| " + fmt(jerr);
        }
        return "";
      });
}

// Pinned regression for the early-exit Schwarz break: the bulk tail
// accounting must keep both conservation laws intact —
//   considered = schwarz + density + computed, and
//   considered = sum over tasks of (ket_end - ket_begin)
// — at a screening threshold loose enough that tasks actually break
// mid-range, with and without density screening, on every schedule.
TEST(Differential, EarlyExitScreeningStatsStayConserved) {
  // Water is too compact for quartet-level Schwarz failures at any
  // threshold its pair list survives; propylene carbonate has enough
  // spatial spread that ket ranges genuinely break mid-task.
  const auto mol = mthfx::workload::propylene_carbonate();
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  la::Matrix p(basis.num_functions(), basis.num_functions());
  for (std::size_t i = 0; i < p.rows(); ++i)
    for (std::size_t j = 0; j < p.cols(); ++j)
      p(i, j) = (i == j) ? 1.0 : 0.02 / (1.0 + static_cast<double>(i + j));

  for (const bool density : {false, true}) {
    for (const auto schedule : mt::all_schedules()) {
      hfx::HfxOptions opts;
      opts.eps_schwarz = 1e-6;  // loose: forces mid-range breaks
      opts.density_screening = density;
      opts.schedule = schedule;
      opts.num_threads = 4;
      hfx::FockBuilder builder(basis, opts);
      const auto r = builder.coulomb_exchange(p);
      const auto& s = r.stats.screening;

      std::uint64_t span = 0;
      for (const auto& task : builder.tasks())
        span += task.ket_end - task.ket_begin;

      EXPECT_GT(s.quartets_schwarz_screened, 0u)
          << "threshold not loose enough to exercise the break";
      EXPECT_EQ(s.quartets_considered,
                s.quartets_schwarz_screened + s.quartets_density_screened +
                    s.quartets_computed)
          << "schedule " << schedule_name(schedule) << " density " << density;
      EXPECT_EQ(s.quartets_considered, span)
          << "schedule " << schedule_name(schedule) << " density " << density;
      if (!density) EXPECT_EQ(s.quartets_density_screened, 0u);
    }
  }
}

// End-to-end differential: the converged SCF energy must not depend on
// the schedule policy. Fewer default iterations — each case is two full
// SCF solves.
TEST(Differential, ScfEnergyScheduleIndependent) {
  MTHFX_PROPERTY_N(
      "Differential.ScfEnergyScheduleIndependent", 10,
      [](mt::Rng& rng, std::size_t) -> std::string {
        auto mol = mt::jittered(rng, mthfx::workload::water(), 0.05);
        const auto basis = chem::BasisSet::build(mol, "sto-3g");

        scf::ScfOptions base;
        base.energy_tolerance = 1e-10;
        base.diis_tolerance = 1e-8;
        base.hfx.eps_schwarz = 1e-12;
        base.hfx.num_threads = 1;
        base.hfx.schedule = hfx::HfxSchedule::kStaticBlock;
        const auto ref = scf::rhf(mol, basis, base);

        scf::ScfOptions alt = base;
        alt.hfx.schedule = mt::all_schedules()[rng.index(4)];
        alt.hfx.num_threads = 1 + rng.index(8);
        const auto got = scf::rhf(mol, basis, alt);
        if (!ref.converged || !got.converged)
          return "SCF did not converge under one of the schedules";
        if (std::abs(ref.energy - got.energy) > 1e-9)
          return std::string("schedule ") + schedule_name(alt.hfx.schedule) +
                 " changed the SCF energy by " +
                 fmt(std::abs(ref.energy - got.energy));
        return "";
      });
}

// The batched SIMD kernel against the dense reference oracle, quartet
// by quartet, on random stream slices of the
// 6-31g* water basis and of the synthetic s-f shell set. Slice lengths
// are drawn to cover single-quartet streams, sub-width batches and
// ragged tails (the stream length mod 8 varies with the draw), and the
// stream is shuffled so batches mix structural classes in different
// lane orders each case.
TEST(Differential, BatchedKernelMatchesScalarAndDenseOnMixedShells) {
  MTHFX_PROPERTY_N(
      "Differential.BatchedKernelMatchesScalarAndDenseOnMixedShells", 6,
      [](mt::Rng& rng, std::size_t) -> std::string {
        const auto mol = mt::jittered(rng, mthfx::workload::water(), 0.08);
        const auto basis = chem::BasisSet::build(mol, "6-31g*");
        const std::string err = batched_vs_oracle(rng, basis.shells());
        if (!err.empty()) return "6-31g* water: " + err;
        const std::string ferr = batched_vs_oracle(rng, f_shell_set(rng));
        return ferr.empty() ? "" : "s-f shell set: " + ferr;
      });
}
