#include "md/forces.hpp"

#include <stdexcept>
#include <utility>

#include "scf/gradient.hpp"

namespace mthfx::md {

std::vector<chem::Vec3> PotentialSurface::forces(
    const chem::Molecule& mol) const {
  std::vector<chem::Vec3> f(mol.size(), chem::Vec3{0, 0, 0});
  chem::Molecule work = mol;
  for (std::size_t a = 0; a < mol.size(); ++a) {
    for (std::size_t d = 0; d < 3; ++d) {
      chem::Vec3 p = mol.atom(a).pos;
      p[d] += fd_step;
      work.set_position(a, p);
      const double ep = energy(work);
      p[d] -= 2.0 * fd_step;
      work.set_position(a, p);
      const double em = energy(work);
      work.set_position(a, mol.atom(a).pos);
      f[a][d] = -(ep - em) / (2.0 * fd_step);
    }
  }
  return f;
}

ScfPotential::ScfPotential(std::string basis_name, scf::KsOptions options,
                           SurfaceAccel accel)
    : basis_name_(std::move(basis_name)),
      options_(std::move(options)),
      accel_(accel),
      solves_(metrics_.counter("md.scf_solves")),
      cache_hits_(metrics_.counter("md.surface_cache_hits")),
      warm_starts_(metrics_.counter("md.warm_starts")),
      iterations_(metrics_.counter("md.scf_iterations")),
      rebind_reused_(metrics_.counter("md.rebind_reused_pairs")) {}

scf::KsOptions ScfPotential::solve_options() const {
  scf::KsOptions opt = options_;
  if (accel_.reuse_builder && builder_) opt.scf.shared_builder = builder_.get();
  if (grid_) opt.shared_grid = &*grid_;
  return opt;
}

const scf::KsResult& ScfPotential::solve(const chem::Molecule& mol) const {
  if (accel_.cache_wavefunction && have_cache_ && cached_mol_ == mol) {
    cache_hits_.add(0);
    return cached_;
  }

  auto next = std::make_unique<chem::BasisSet>(
      chem::BasisSet::build(mol, basis_name_));
  if (accel_.reuse_builder) {
    if (builder_) {
      try {
        builder_->rebind(*next);
        rebind_reused_.add(0, builder_->last_rebind_reused_pairs());
      } catch (const std::invalid_argument&) {
        // Different shell structure (new molecule on this surface):
        // start a fresh builder rather than refusing the solve.
        builder_ = std::make_unique<hfx::FockBuilder>(*next,
                                                      options_.scf.hfx);
      }
    } else {
      builder_ = std::make_unique<hfx::FockBuilder>(*next, options_.scf.hfx);
    }
  }
  grid_.reset();
  basis_ = std::move(next);
  if (options_.functional != "hf")
    scf::grid_for(mol, *basis_, options_, grid_);

  scf::KsOptions opt = solve_options();
  bool warm = false;
  if (accel_.warm_start && p_prev_ &&
      p_prev_->rows() == basis_->num_functions()) {
    if (p_prev2_ && p_prev2_->rows() == basis_->num_functions()) {
      // Linear extrapolation of the density across the trajectory.
      auto guess = std::make_shared<linalg::Matrix>(
          2.0 * (*p_prev_) - (*p_prev2_));
      opt.scf.initial_density = std::move(guess);
    } else {
      opt.scf.initial_density = p_prev_;
    }
    warm = true;
  }

  auto result = scf::rks(mol, *basis_, opt);
  if (!result.scf.converged && warm) {
    // An extrapolated guess can overshoot through a hard geometry; the
    // cold SAD guess is slower but safe. Count only successful warm solves.
    opt.scf.initial_density.reset();
    result = scf::rks(mol, *basis_, opt);
    warm = false;
  }
  if (!result.scf.converged)
    throw std::runtime_error("ScfPotential: SCF did not converge");

  solves_.add(0);
  iterations_.add(0, result.scf.iterations);
  if (warm) warm_starts_.add(0);

  p_prev2_ = p_prev_;
  p_prev_ = std::make_shared<linalg::Matrix>(result.scf.density);
  cached_mol_ = mol;
  cached_ = std::move(result);
  have_cache_ = true;
  return cached_;
}

double ScfPotential::energy(const chem::Molecule& mol) const {
  return solve(mol).scf.energy;
}

std::vector<chem::Vec3> ScfPotential::forces(const chem::Molecule& mol) const {
  const scf::KsResult& result = solve(mol);
  const auto grad = scf::ks_gradient(mol, *basis_, solve_options(), result);
  std::vector<chem::Vec3> f(grad.size());
  for (std::size_t i = 0; i < grad.size(); ++i) f[i] = -1.0 * grad[i];
  return f;
}

double HarmonicBondPotential::energy(const chem::Molecule& mol) const {
  double e = 0.0;
  for (const Bond& b : bonds_) {
    const double r = chem::distance(mol.atom(b.i).pos, mol.atom(b.j).pos);
    e += 0.5 * b.k * (r - b.r0) * (r - b.r0);
  }
  return e;
}

std::vector<chem::Vec3> HarmonicBondPotential::forces(
    const chem::Molecule& mol) const {
  std::vector<chem::Vec3> f(mol.size(), chem::Vec3{0, 0, 0});
  for (const Bond& b : bonds_) {
    const chem::Vec3 d = mol.atom(b.i).pos - mol.atom(b.j).pos;
    const double r = chem::norm(d);
    if (r < 1e-12) continue;
    const double mag = -b.k * (r - b.r0) / r;
    f[b.i] = f[b.i] + mag * d;
    f[b.j] = f[b.j] - mag * d;
  }
  return f;
}

}  // namespace mthfx::md
