// Quickstart: the mthfx public API in one page.
//
//   1. build a molecule and a basis,
//   2. run RHF and hybrid-DFT (PBE0) SCF,
//   3. call the parallel HFX builder directly and inspect its statistics,
//   4. project the same build onto the full 96-rack BG/Q with the
//      machine simulator.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "bgq/simulator.hpp"
#include "chem/basis.hpp"
#include "chem/elements.hpp"
#include "hfx/fock_builder.hpp"
#include "ints/one_electron.hpp"
#include "linalg/eigen.hpp"
#include "scf/guess.hpp"
#include "scf/rhf.hpp"
#include "scf/rks.hpp"
#include "workload/geometries.hpp"

int main() {
  using namespace mthfx;

  // 1. A molecule (water) and a basis set.
  const chem::Molecule mol = workload::water();
  const chem::BasisSet basis = chem::BasisSet::build(mol, "sto-3g");
  std::printf("water: %zu atoms, %d electrons, %zu AOs\n", mol.size(),
              mol.num_electrons(), basis.num_functions());

  // 2a. Hartree-Fock.
  const scf::ScfResult hf = scf::rhf(mol, basis);
  std::printf("RHF   energy: %.8f Ha  (%zu iterations, converged=%d)\n",
              hf.energy, hf.iterations, hf.converged);

  // 2b. PBE0 hybrid DFT — 25%% of the exchange runs through the same HFX
  // kernel the paper scales to millions of threads.
  scf::KsOptions ks;
  ks.functional = "pbe0";
  const scf::KsResult pbe0 = scf::rks(mol, basis, ks);
  std::printf("PBE0  energy: %.8f Ha  (E_xc = %.6f, exact-X = %.6f)\n",
              pbe0.scf.energy, pbe0.xc_energy, pbe0.exact_exchange_energy);
  std::printf("HOMO-LUMO gap: RHF %.2f eV, PBE0 %.2f eV\n",
              scf::homo_lumo_gap(hf, mol) * chem::kEvPerHartree,
              scf::homo_lumo_gap(pbe0.scf, mol) * chem::kEvPerHartree);

  // 3. The HFX kernel directly: screened, task-parallel exchange build.
  // The projection in step 4 calibrates on the finest grain (about one
  // ket per task), the machine's real minimum work unit; the host default
  // is one task per bra row.
  hfx::HfxOptions opts;
  opts.eps_schwarz = 1e-10;
  opts.record_task_costs = true;
  opts.target_task_cost = 1.0;
  hfx::FockBuilder builder(basis, opts);
  const auto exchange = builder.exchange(hf.density);
  const auto& st = exchange.stats;
  std::printf("\nHFX build: %zu shell pairs (of %zu), %zu tasks\n",
              st.num_pairs, st.num_pairs_unscreened, st.num_tasks);
  std::printf("  quartets: %llu computed, %llu screened away\n",
              static_cast<unsigned long long>(st.screening.quartets_computed),
              static_cast<unsigned long long>(
                  st.screening.quartets_schwarz_screened +
                  st.screening.quartets_density_screened));
  std::printf("  wall time: %.4f s on %zu threads\n", st.wall_seconds,
              st.thread_busy_seconds.size());

  // 4. Project onto the Blue Gene/Q at the paper's headline scale.
  const auto dist =
      bgq::EmpiricalCostDistribution::from_records(st.task_costs);
  bgq::SimWorkload w;
  w.num_tasks = 200'000'000;  // a condensed-phase-sized task population
  w.reduction_bytes = 8LL * 20000 * 20000;
  const auto machine = bgq::machine_for_racks(96);
  const auto sim = bgq::simulate_step(machine, w, dist);
  std::printf(
      "\nsimulated on %d racks (%lld threads): %.3f s/HFX step, "
      "imbalance %.3f\n",
      machine.racks, static_cast<long long>(machine.num_threads()),
      sim.makespan_seconds, sim.imbalance);
  return 0;
}
