#pragma once

// Restricted Kohn–Sham SCF with hybrid-functional support. PBE0 runs the
// same HFX machinery as RHF with a 0.25 exchange fraction — exactly how
// the paper deploys the kernel inside DFT-based molecular dynamics.

#include <optional>

#include "dft/functionals.hpp"
#include "dft/grid.hpp"
#include "dft/xc_integrator.hpp"
#include "scf/rhf.hpp"

namespace mthfx::scf {

/// The Becke grid and screened AO table of one geometry and basis.
/// Holds no threads.
class KsGrid {
 public:
  KsGrid(const chem::Molecule& mol, const chem::BasisSet& basis,
         const dft::GridOptions& options);
  KsGrid(const KsGrid&) = delete;
  KsGrid& operator=(const KsGrid&) = delete;

  /// Built for this geometry and grid resolution on this BasisSet object?
  /// Only the basis address is compared, as for a shared FockBuilder.
  bool matches(const chem::Molecule& mol, const chem::BasisSet& basis,
               const dft::GridOptions& options) const;

  const dft::XcIntegrator& xc() const { return xc_; }

 private:
  chem::Molecule mol_;
  const chem::BasisSet* basis_;
  dft::GridOptions options_;
  dft::MolecularGrid grid_;
  dft::XcIntegrator xc_;
};

struct KsOptions {
  ScfOptions scf;              ///< convergence / HFX settings
  dft::GridOptions grid;       ///< Becke grid resolution
  std::string functional = "pbe0";
  /// A grid the caller built for this geometry and basis (the MD
  /// surface's per-step grid). rks and ks_gradient integrate on it when it
  /// matches, instead of each building its own. Not owned.
  const KsGrid* shared_grid = nullptr;
};

/// `options.shared_grid` when it matches (mol, basis, options.grid), else
/// a grid built into `own` under a `dft.grid` span.
const KsGrid& grid_for(const chem::Molecule& mol, const chem::BasisSet& basis,
                       const KsOptions& options, std::optional<KsGrid>& own);

struct KsResult {
  ScfResult scf;               ///< energies, density, orbitals
  double xc_energy = 0.0;
  double exact_exchange_energy = 0.0;
  double integrated_density = 0.0;  ///< grid check, should be N_electrons
};

/// Run closed-shell restricted Kohn–Sham ("hf" functional reduces to RHF).
/// XC runs on the solve's FockBuilder pool (the shared builder's, or the
/// owned builder's of options.scf.hfx.num_threads threads).
KsResult rks(const chem::Molecule& mol, const chem::BasisSet& basis,
             const KsOptions& options = {});

}  // namespace mthfx::scf
