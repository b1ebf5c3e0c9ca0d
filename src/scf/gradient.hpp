#pragma once

// Analytic nuclear gradients for the converged SCF surfaces (the force
// engine behind efficient BOMD; the paper's CPMD substrate uses analytic
// forces throughout).
//
// dE/dX = P·dH + 1/2 Γ·dERI - W·dS + dVnn (+ dExc for semilocal
// functionals), with the energy-weighted density W and the two-particle
// density Γ assembled from the converged closed-shell solution. The
// two-electron term runs through the screened canonical-quartet stream in
// hfx::two_electron_gradient with the functional's exact-exchange
// fraction; the XC term adds orbital and Becke-weight derivatives from
// dft::XcIntegrator::gradient. RHF is the ax = 1, no-XC special case of
// the same machinery.

#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "scf/rhf.hpp"
#include "scf/rks.hpp"

namespace mthfx::scf {

/// Gradient dE/dR per atom (Hartree/Bohr) at a converged RHF solution.
/// The result must come from scf::rhf on the same molecule/basis.
std::vector<chem::Vec3> rhf_gradient(const chem::Molecule& mol,
                                     const chem::BasisSet& basis,
                                     const ScfResult& result);

/// Gradient dE/dR per atom (Hartree/Bohr) at a converged RKS solution —
/// covers every ScfPotential functional: "hf" (pure HFX), "lda"/"pbe"
/// (pure semilocal) and "pbe0" (hybrid). `options` must be the KsOptions
/// the solve ran with (functional, grid resolution and HFX screening
/// thresholds are read from it); `result` must come from scf::rks on the
/// same molecule/basis. When options.scf.shared_builder targets this
/// basis its shell-pair list is reused for the derivative-ERI stream, and
/// when options.shared_grid matches, its grid and AO table are reused for
/// the XC term. The two-electron and XC terms run on that shared
/// builder's pool, or else on one pool of options.scf.hfx.num_threads
/// threads made for the call.
std::vector<chem::Vec3> ks_gradient(const chem::Molecule& mol,
                                    const chem::BasisSet& basis,
                                    const KsOptions& options,
                                    const KsResult& result);

/// Nuclear-repulsion part of the gradient (exposed for tests).
std::vector<chem::Vec3> nuclear_repulsion_gradient(const chem::Molecule& mol);

}  // namespace mthfx::scf
