#pragma once

// Numerical exchange–correlation integration over the Becke grid:
// E_xc = ∫ e_xc(rho, sigma) and the matching Kohn–Sham potential matrix
// V_xc[mu][nu] = ∫ [v_rho phi_mu phi_nu + 2 v_sigma (grad rho)·grad(phi_mu
// phi_nu)] with e_xc and its exact potentials (v_rho, v_sigma) from one
// functional evaluation per grid point (dft/functionals.hpp).
//
// Every entry point runs on one shell-screened AO table built by the
// constructor. The constructor also cuts the grid into at most
// kMaxChunks runs of consecutive points of near-equal AO cost; the cut
// depends on the grid and basis alone. integrate, integrate_spin and
// gradient give each chunk its own zeroed partial (V, or V_alpha/V_beta,
// with the energy and density sums; or the per-atom gradient), run the
// chunks on the pool passed in (or on the calling thread), and merge the
// partials along parallel::TreeMerge's fixed tree. Their results are
// therefore bit-identical for any thread count. The integrator holds no
// threads of its own. integrate and integrate_spin open a `dft.xc` span,
// and gradient a `dft.xc_grad` span, on obs::global_trace().

#include <cstddef>
#include <cstdint>
#include <vector>

#include "chem/basis.hpp"
#include "dft/functionals.hpp"
#include "dft/grid.hpp"
#include "dft/spin_functionals.hpp"
#include "linalg/matrix.hpp"

namespace mthfx::parallel {
class ThreadPool;
}

namespace mthfx::dft {

struct XcResult {
  double energy = 0.0;
  linalg::Matrix v;              ///< nao x nao potential matrix
  double integrated_density = 0; ///< grid quality check: should equal N
};

struct XcSpinResult {
  double energy = 0.0;
  linalg::Matrix v_alpha;        ///< alpha Kohn-Sham potential matrix
  linalg::Matrix v_beta;
  double integrated_density = 0;
};

class XcIntegrator {
 public:
  /// Caches, per grid point, the values and gradients of the AOs of
  /// every shell whose extent radius (hfx/cell_list.hpp) covers the
  /// point, so the per-point loops below run over the O(1) local AO set
  /// instead of all nao — the XC-side analogue of the distance-culled
  /// pair list. Dropped AO values sit below the shell-extent tail
  /// (~1e-14), well under the quadrature error.
  XcIntegrator(const chem::BasisSet& basis, const MolecularGrid& grid);

  /// Most point chunks per grid: enough to balance a pool of a few
  /// threads; each chunk costs one zeroed partial and one merge.
  static constexpr std::size_t kMaxChunks = 64;

  /// Fraction of the dense np x nao AO table actually cached.
  double cached_fraction() const;

  /// Number of point chunks the grid was cut into.
  std::size_t num_chunks() const { return chunk_end_.size(); }

  /// Evaluate E_xc and V_xc for the closed-shell density matrix P. The
  /// chunks run on `pool` when one is given, else on the calling thread.
  XcResult integrate(const Functional& functional,
                     const linalg::Matrix& density,
                     parallel::ThreadPool* pool = nullptr) const;

  /// Spin-polarized evaluation from alpha/beta densities (no factor 2).
  XcSpinResult integrate_spin(const SpinFunctional& functional,
                              const linalg::Matrix& density_alpha,
                              const linalg::Matrix& density_beta,
                              parallel::ThreadPool* pool = nullptr) const;

  /// ∫ rho for a density matrix (electron-count check).
  double integrate_density(const linalg::Matrix& density) const;

  /// dE_xc/dR per atom at fixed density matrix P. Covers the
  /// basis-center (orbital) terms — with the cached shells' AO Hessians
  /// feeding the d(sigma)/dR part for GGAs — and the Becke
  /// partition-weight derivatives. Grid points ride on their parent
  /// atoms; the moving-point terms are folded in through translational
  /// invariance, so the total gradient sums to zero over atoms up to
  /// quadrature error.
  std::vector<chem::Vec3> gradient(const Functional& functional,
                                   const linalg::Matrix& density,
                                   const chem::Molecule& mol,
                                   parallel::ThreadPool* pool = nullptr) const;

 private:
  /// rho, grad rho and sigma = |grad rho|^2 of P at one grid point.
  struct PointDensity {
    double rho = 0.0;
    double dx = 0.0, dy = 0.0, dz = 0.0;
    double sigma = 0.0;
  };

  /// Grid point g's cached AOs: n values, gradients and AO indices.
  struct Row {
    std::size_t n = 0;
    const double *phi = nullptr, *gx = nullptr, *gy = nullptr,
                 *gz = nullptr;
    const std::uint32_t* idx = nullptr;
  };
  Row row(std::size_t g) const;

  /// End of the run of points from g on (before `end`) whose rows cache
  /// the same AOs as g's. The loops below gather P over a run's AOs once
  /// into a dense n x n block and accumulate V into another, so the
  /// per-point work runs on contiguous memory.
  std::size_t run_end(std::size_t g, std::size_t end) const;

  /// Contract the row's dense P block (n x n, row-major) with its AO
  /// values: writes (P phi) to `pphi` and, when `with_gradient`, forms
  /// grad rho = 2 (P phi) . grad phi (left zero otherwise).
  static PointDensity point_density(const Row& r, const double* pblock,
                                    bool with_gradient, double* pphi);

  const chem::BasisSet& basis_;
  const MolecularGrid& grid_;
  // Cached AO values and gradients per grid point, CSR-compressed:
  // point g owns entries [row_off_[g], row_off_[g+1]) of cols_ (AO
  // indices, ascending) and of the four value arrays. The shells those
  // AOs belong to are entries [shell_off_[g], shell_off_[g+1]) of
  // shells_, ascending, so a row's AOs are its shells' components in
  // order.
  std::vector<std::size_t> row_off_;
  std::vector<std::uint32_t> cols_;
  std::vector<double> ao_, ax_, ay_, az_;
  std::vector<std::size_t> shell_off_;
  std::vector<std::uint32_t> shells_;
  // Chunk c holds points [c ? chunk_end_[c-1] : 0, chunk_end_[c]).
  std::vector<std::size_t> chunk_end_;
};

}  // namespace mthfx::dft
