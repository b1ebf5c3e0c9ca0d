#pragma once

// The one SCF iteration loop behind scf::rhf, uhf, rks, uks and
// sparse_rhf. Internal to src/scf: callers use those entry points.
//
// A solve is fixed by three choices:
//  - spin channels: one closed-shell channel (occupation 2) or an alpha
//    and a beta channel (occupation 1), each with its own P, C, ε and
//    DIIS history;
//  - Fock terms: the exact-exchange fraction ax and an optional XC term,
//      F_σ = H + J[P] - (ax/occ) K[P_σ] + V_xc,σ
//      E   = tr(P H) + ½ tr(P J) - (ax/2occ) Σ_σ tr(P_σ K_σ) + E_xc + E_nn
//    with P the total density (RHF and UHF are ax = 1 without XC);
//  - a density step: diagonalization or TC2 purification on
//    block-sparse matrices (diagonalize_step / purify_step).
//
// The loop owns what every reference shares: the cancellation poll,
// checkpoint/resume, the recovery ladder, the incremental (ΔP) Fock path
// with its full-build endgame, the iteration log, the convergence test
// and the non-converged tail. Converged orbitals are the eigenvectors of
// the plain (not DIIS-extrapolated) F[P] of the converged density.

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "hfx/fock_builder.hpp"
#include "linalg/diis.hpp"
#include "scf/guess.hpp"
#include "scf/rhf.hpp"
#include "scf/sparse_scf.hpp"
#include "scf/uhf.hpp"

namespace mthfx::scf::detail {

/// State of one spin channel.
struct Channel {
  std::size_t nocc = 0;
  linalg::Matrix p;  ///< density, occupation folded in
  linalg::Matrix c;  ///< orbitals (empty under purification)
  linalg::Vector eps;
  linalg::Diis diis;
  linalg::Matrix j, k, p_built;  ///< J/K of the density p_built
};

/// Semilocal XC part of the Fock terms at the current densities.
struct XcTerm {
  double energy = 0.0;
  double integrated_density = 0.0;
  std::vector<linalg::Matrix> v;  ///< one potential per spin channel
};
using XcFunction = std::function<XcTerm(const std::vector<Channel>&)>;

/// How a Fock matrix becomes the next density, with the J/K build and
/// the commutator error that belong to it. Owns S, H and the builder.
class DensityStep {
 public:
  virtual ~DensityStep() = default;
  DensityStep(const DensityStep&) = delete;  // builder_ may point inside
  DensityStep& operator=(const DensityStep&) = delete;

  const linalg::Matrix& overlap() const { return s_; }
  const linalg::Matrix& core_hamiltonian() const { return h_; }
  /// The J/K builder (shared or owned); its pool is the solve's pool.
  const hfx::FockBuilder& builder() const { return *builder_; }
  /// False when the step yields densities only (purification).
  virtual bool has_orbitals() const { return true; }

  /// J and K of one channel's density (or density change).
  virtual hfx::JkResult coulomb_exchange(const linalg::Matrix& density) {
    return builder_->coulomb_exchange(density);
  }
  /// Commutator error the DIIS extrapolates on and convergence reads.
  virtual linalg::Matrix error(const linalg::Matrix& f,
                               const linalg::Matrix& p) = 0;
  /// Density of the lowest `nocc` states of F, `occupation` per state.
  virtual OrbitalSolution update(const linalg::Matrix& f, std::size_t nocc,
                                 double occupation) = 0;
  /// S - S P S, the level shift's per-unit Fock term for density P.
  virtual linalg::Matrix level_shift_term(const linalg::Matrix& p) {
    return s_ - linalg::matmul(linalg::matmul(s_, p), s_);
  }

 protected:
  DensityStep() = default;
  /// Use `shared` (it must target `basis`) or build an owned builder.
  void bind_builder(const chem::BasisSet& basis, const hfx::HfxOptions& hfx,
                    const hfx::FockBuilder* shared, const char* method);

  linalg::Matrix s_, h_;
  const hfx::FockBuilder* builder_ = nullptr;

 private:
  std::optional<hfx::FockBuilder> own_builder_;
};

/// Dense path: Löwdin orthogonalizer, an eigensolve per channel and the
/// projected commutator X^T (F P S - S P F) X.
std::unique_ptr<DensityStep> diagonalize_step(const chem::Molecule& mol,
                                              const chem::BasisSet& basis,
                                              const hfx::HfxOptions& hfx,
                                              const hfx::FockBuilder* shared,
                                              const char* method);

/// Large-box path (closed shell): one-electron matrices over cell-list
/// candidates, the blocked J/K build, Newton–Schulz S^{-1/2}, TC2
/// purification and the unprojected blocked commutator. Fills `info`.
std::unique_ptr<DensityStep> purify_step(const chem::Molecule& mol,
                                         const chem::BasisSet& basis,
                                         const ScfOptions& options,
                                         SparseScfInfo& info);

/// What distinguishes one reference's solve.
struct LoopSpec {
  const char* method = "";            ///< checkpoint method, error prefix
  std::vector<std::size_t> nocc;      ///< occupied states per spin channel
  double nuclear_repulsion = 0.0;
  double ax = 1.0;                    ///< exact-exchange fraction
  XcFunction xc;                      ///< empty: no semilocal term
  std::vector<linalg::Matrix> guess;  ///< starting density per channel
  bool incremental = false;           ///< ΔP Fock builds (one channel)
  // Configured mitigations (UhfOptions); the ladder's stronger ones win.
  double density_damping = 0.0;
  double damping_until = 0.0;
  double level_shift = 0.0;
};

struct LoopResult {
  ScfResult scf;         ///< energies, log, diagnostics; first channel
  OrbitalSolution beta;  ///< second channel (open shell)
  double xc_energy = 0.0;
  double integrated_density = 0.0;
  double s_squared = 0.0;  ///< two channels only
};

/// Run the SCF. Reads the convergence, DIIS, recovery, resume,
/// checkpoint and cancellation fields of `options`; the build and guess
/// fields are the wrapper's (through `step` and `spec`).
LoopResult run_scf(const LoopSpec& spec, const ScfOptions& options,
                   DensityStep& step);

/// uhf started from the core-Hamiltonian guess instead of SAD: the atomic
/// solves behind sad_guess_density, which must not recurse into it.
UhfResult uhf_from_core_guess(const chem::Molecule& mol,
                              const chem::BasisSet& basis, int multiplicity,
                              const UhfOptions& options);

}  // namespace mthfx::scf::detail
