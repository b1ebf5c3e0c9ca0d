#pragma once

// Potential-energy surfaces for Born–Oppenheimer MD. The production
// surface is an SCF (RHF or RKS/PBE0) energy whose forces come from the
// analytic nuclear gradient (scf::ks_gradient) for every supported
// functional — hf, lda, pbe and pbe0 — matching the paper's CPMD
// substrate, which uses analytic forces throughout. The base-class
// central-finite-difference fallback is retained only as a test oracle
// (the gradient property suite diffs analytic forces against it) and for
// surfaces that do not implement an analytic gradient.
//
// ScfPotential also carries the cross-step acceleration state for MD
// trajectories: a per-geometry wavefunction cache (energy() + forces()
// at the same geometry cost one SCF, not two), density-matrix
// extrapolation warm starts (mid-trajectory solves converge in a few
// iterations), and a persistent FockBuilder rebound geometry-to-geometry
// so shell-pair Hermite tables on unmoved atoms are reused.

#include <memory>
#include <optional>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "hfx/fock_builder.hpp"
#include "obs/registry.hpp"
#include "scf/rks.hpp"

namespace mthfx::md {

class PotentialSurface {
 public:
  virtual ~PotentialSurface() = default;

  /// Potential energy (Hartree) at the given geometry.
  virtual double energy(const chem::Molecule& mol) const = 0;

  /// Forces (-dE/dR, Hartree/Bohr). Default implementation: central
  /// finite differences with step `fd_step` Bohr.
  virtual std::vector<chem::Vec3> forces(const chem::Molecule& mol) const;

  double fd_step = 1e-3;
};

/// SCF-backed surface: "hf" runs RHF-equivalent, "pbe"/"pbe0"/"lda" run
/// RKS. Throws std::runtime_error if any SCF fails to converge.
///
/// Forces are analytic for every functional (one converged SCF plus one
/// gradient contraction per geometry — never the 6N-energy finite
/// difference of the base class). Cross-call acceleration, all
/// individually switchable via SurfaceAccel:
///  - wavefunction cache: a repeated geometry (MD's energy-then-forces
///    pattern) reuses the converged result instead of re-solving;
///  - warm starts: the SCF guess is the linear extrapolation 2 P_{n-1} -
///    P_{n-2} of the previous converged densities (falling back to
///    P_{n-1}, then to the cold SAD guess; a non-converged warm solve is
///    retried cold before giving up);
///  - builder reuse: one FockBuilder serves the whole trajectory,
///    rebound per geometry so Schwarz bounds and Hermite tables on
///    unmoved atoms carry over.
/// Each new geometry builds one XC grid and AO table, which the solve and
/// the gradient at that geometry share (KsOptions::shared_grid).
/// Counters (metrics(): md.scf_solves, md.surface_cache_hits,
/// md.warm_starts, md.scf_iterations, md.rebind_reused_pairs) expose the
/// machinery to tests and the A8 bench.
/// Switches for ScfPotential's cross-call acceleration machinery. All on
/// by default; tests and the A8 bench toggle them to isolate each lever.
struct SurfaceAccel {
  bool cache_wavefunction = true;  ///< reuse converged result per geometry
  bool warm_start = true;          ///< density extrapolation across solves
  bool reuse_builder = true;       ///< persistent FockBuilder + rebind
};

class ScfPotential : public PotentialSurface {
 public:
  ScfPotential(std::string basis_name, scf::KsOptions options,
               SurfaceAccel accel = {});

  double energy(const chem::Molecule& mol) const override;
  std::vector<chem::Vec3> forces(const chem::Molecule& mol) const override;

  /// Counter registry for the acceleration machinery (see class docs).
  const obs::Registry& metrics() const { return metrics_; }

 private:
  /// Converged solution at `mol`, via cache / warm start / builder reuse.
  const scf::KsResult& solve(const chem::Molecule& mol) const;
  /// KsOptions for this solve/gradient: options_ plus the shared builder.
  scf::KsOptions solve_options() const;

  std::string basis_name_;
  scf::KsOptions options_;
  SurfaceAccel accel_;

  mutable obs::Registry metrics_{1};
  obs::Counter solves_;
  obs::Counter cache_hits_;
  obs::Counter warm_starts_;
  obs::Counter iterations_;
  obs::Counter rebind_reused_;

  // Cross-call state (the surface is logically const to the integrator;
  // everything below is acceleration-only and does not change results
  // beyond SCF-convergence noise).
  mutable std::unique_ptr<chem::BasisSet> basis_;
  mutable std::unique_ptr<hfx::FockBuilder> builder_;
  mutable std::optional<scf::KsGrid> grid_;  ///< empty for "hf"
  mutable bool have_cache_ = false;
  mutable chem::Molecule cached_mol_;
  mutable scf::KsResult cached_;
  mutable std::shared_ptr<const linalg::Matrix> p_prev_;   ///< P_{n-1}
  mutable std::shared_ptr<const linalg::Matrix> p_prev2_;  ///< P_{n-2}
};

/// Analytic harmonic-bond surface for integrator tests: E = sum_b
/// k/2 (r_b - r0_b)^2 over the listed atom pairs.
class HarmonicBondPotential : public PotentialSurface {
 public:
  struct Bond {
    std::size_t i = 0, j = 0;
    double k = 1.0;   ///< Hartree / Bohr^2
    double r0 = 1.0;  ///< Bohr
  };

  explicit HarmonicBondPotential(std::vector<Bond> bonds)
      : bonds_(std::move(bonds)) {}

  double energy(const chem::Molecule& mol) const override;
  std::vector<chem::Vec3> forces(const chem::Molecule& mol) const override;

 private:
  std::vector<Bond> bonds_;
};

}  // namespace mthfx::md
