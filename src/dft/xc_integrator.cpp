#include "dft/xc_integrator.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "hfx/cell_list.hpp"
#include "obs/trace.hpp"
#include "parallel/reduce.hpp"
#include "parallel/thread_pool.hpp"

namespace mthfx::dft {

using linalg::Matrix;

namespace {

// Chunk cost of a point with n cached AOs: the density contraction and
// the V update are n^2 each, and the functional call weighs about as
// much as 32 AO products.
double point_cost(std::size_t n) { return static_cast<double>(n * n + 32); }

// Per-chunk partial sums. clear() zeroes a partial recycled by the merge.
// VPart holds one t phi^T sum per spin channel (V = w + w^T) with the
// chunk's energy and density.
struct VPart {
  std::vector<Matrix> w;
  double energy = 0.0, density = 0.0;
  void clear() {
    for (Matrix& m : w) m.fill(0.0);
    energy = density = 0.0;
  }
  VPart& operator+=(const VPart& o) {
    for (std::size_t k = 0; k < w.size(); ++k) w[k] += o.w[k];
    energy += o.energy;
    density += o.density;
    return *this;
  }
};

struct GradPart {
  std::vector<chem::Vec3> g;
  void clear() { g.assign(g.size(), chem::Vec3{0, 0, 0}); }
  GradPart& operator+=(const GradPart& o) {
    for (std::size_t a = 0; a < g.size(); ++a) g[a] = g[a] + o.g[a];
    return *this;
  }
};

// Runs body(begin, end, part) for every chunk of points, each into its
// own zeroed partial (a copy of `zero`, or a cleared recycled one), on
// `pool` or on the calling thread, and merges the partials along the
// fixed tree over chunk indices. Only the chunk cut and the point order
// inside a chunk reach the sum, so the total is bitwise independent of
// thread count and completion order.
template <class Part, class Body>
Part run_chunks(const std::vector<std::size_t>& chunk_end,
                parallel::ThreadPool* pool, const Part& zero, Body body) {
  parallel::TreeMerge<Part> merge(chunk_end.size());
  const auto run = [&](std::size_t c, std::size_t) {
    std::optional<Part> part = merge.recycle();
    if (part)
      part->clear();
    else
      part.emplace(zero);
    body(c ? chunk_end[c - 1] : 0, chunk_end[c], *part);
    merge.finish(c, std::move(*part));
  };
  if (pool) {
    pool->parallel_for(0, chunk_end.size(), run);
  } else {
    for (std::size_t c = 0; c < chunk_end.size(); ++c) run(c, 0);
  }
  std::optional<Part> total = merge.take();
  return total ? std::move(*total) : zero;
}

// P over the AOs idx[0..n) as a dense n x n block.
void gather(const Matrix& density, const std::uint32_t* idx, std::size_t n,
            std::vector<double>& block) {
  block.resize(n * n);
  for (std::size_t mu = 0; mu < n; ++mu) {
    const double* prow = density.row(idx[mu]).data();
    for (std::size_t nu = 0; nu < n; ++nu) block[mu * n + nu] = prow[idx[nu]];
  }
}

// w at the AOs idx[0..n) += the dense n x n block.
void scatter_add(const std::vector<double>& block, const std::uint32_t* idx,
                 std::size_t n, Matrix& w) {
  for (std::size_t mu = 0; mu < n; ++mu) {
    double* wrow = w.row(idx[mu]).data();
    for (std::size_t nu = 0; nu < n; ++nu) wrow[idx[nu]] += block[mu * n + nu];
  }
}

// V = w + w^T.
Matrix symmetric_sum(const Matrix& w) {
  Matrix v(w.rows(), w.cols());
  for (std::size_t i = 0; i < w.rows(); ++i)
    for (std::size_t j = 0; j < w.cols(); ++j) v(i, j) = w(i, j) + w(j, i);
  return v;
}

}  // namespace

XcIntegrator::XcIntegrator(const chem::BasisSet& basis,
                           const MolecularGrid& grid)
    : basis_(basis), grid_(grid) {
  const std::size_t ns = basis.num_shells();
  const std::size_t np = grid.size();
  std::vector<double> radius2 = hfx::shell_extent_radii(basis);
  for (double& r : radius2) r *= r;

  row_off_.reserve(np + 1);
  row_off_.push_back(0);
  shell_off_.reserve(np + 1);
  shell_off_.push_back(0);
  std::vector<double> val(6), dx(6), dy(6), dz(6);  // per-shell scratch
  for (std::size_t g = 0; g < np; ++g) {
    const chem::Vec3 pos = grid.points()[g].pos;
    for (std::size_t s = 0; s < ns; ++s) {
      const chem::Shell& sh = basis.shell(s);
      const chem::Vec3 d = pos - sh.center();
      if (chem::dot(d, d) > radius2[s]) continue;
      const std::size_t nf = sh.num_functions();
      if (val.size() < nf) {
        val.resize(nf);
        dx.resize(nf);
        dy.resize(nf);
        dz.resize(nf);
      }
      basis.evaluate_shell_with_gradient(s, pos, val.data(), dx.data(),
                                         dy.data(), dz.data());
      shells_.push_back(static_cast<std::uint32_t>(s));
      const std::size_t base = basis.first_function(s);
      for (std::size_t c = 0; c < nf; ++c) {
        cols_.push_back(static_cast<std::uint32_t>(base + c));
        ao_.push_back(val[c]);
        ax_.push_back(dx[c]);
        ay_.push_back(dy[c]);
        az_.push_back(dz[c]);
      }
    }
    row_off_.push_back(cols_.size());
    shell_off_.push_back(shells_.size());
  }

  // Chunk ends: runs of consecutive points of near-equal cost.
  double total = 0.0;
  for (std::size_t g = 0; g < np; ++g)
    total += point_cost(row_off_[g + 1] - row_off_[g]);
  double seen = 0.0;
  for (std::size_t g = 0; g < np; ++g) {
    seen += point_cost(row_off_[g + 1] - row_off_[g]);
    const bool full = chunk_end_.size() + 1 < kMaxChunks &&
                      seen * kMaxChunks >=
                          static_cast<double>(chunk_end_.size() + 1) * total;
    if (full || g + 1 == np) chunk_end_.push_back(g + 1);
  }
}

double XcIntegrator::cached_fraction() const {
  const double dense = static_cast<double>(grid_.size()) *
                       static_cast<double>(basis_.num_functions());
  return dense > 0.0 ? static_cast<double>(cols_.size()) / dense : 1.0;
}

XcIntegrator::Row XcIntegrator::row(std::size_t g) const {
  const std::size_t k = row_off_[g];
  return {row_off_[g + 1] - k, ao_.data() + k, ax_.data() + k,
          ay_.data() + k,     az_.data() + k, cols_.data() + k};
}

std::size_t XcIntegrator::run_end(std::size_t g, std::size_t end) const {
  const std::uint32_t* first = shells_.data() + shell_off_[g];
  const std::size_t count = shell_off_[g + 1] - shell_off_[g];
  std::size_t h = g + 1;
  while (h < end && shell_off_[h + 1] - shell_off_[h] == count &&
         std::equal(first, first + count, shells_.data() + shell_off_[h]))
    ++h;
  return h;
}

XcIntegrator::PointDensity XcIntegrator::point_density(const Row& r,
                                                       const double* pblock,
                                                       bool with_gradient,
                                                       double* pphi) {
  PointDensity d;
  for (std::size_t mu = 0; mu < r.n; ++mu) {
    const double* prow = pblock + mu * r.n;
    double t = 0.0;
    for (std::size_t nu = 0; nu < r.n; ++nu) t += prow[nu] * r.phi[nu];
    pphi[mu] = t;
    d.rho += t * r.phi[mu];
  }
  if (with_gradient) {
    for (std::size_t mu = 0; mu < r.n; ++mu) {
      d.dx += 2.0 * pphi[mu] * r.gx[mu];
      d.dy += 2.0 * pphi[mu] * r.gy[mu];
      d.dz += 2.0 * pphi[mu] * r.gz[mu];
    }
    d.sigma = d.dx * d.dx + d.dy * d.dy + d.dz * d.dz;
  }
  return d;
}

double XcIntegrator::integrate_density(const Matrix& density) const {
  double n = 0.0;
  std::vector<double> pphi(basis_.num_functions()), pblock;
  for (std::size_t g = 0, stop = 0; g < grid_.size(); ++g) {
    const Row r = row(g);
    if (g == stop) {
      stop = run_end(g, grid_.size());
      gather(density, r.idx, r.n, pblock);
    }
    n += grid_.points()[g].weight *
         point_density(r, pblock.data(), false, pphi.data()).rho;
  }
  return n;
}

XcResult XcIntegrator::integrate(const Functional& functional,
                                 const Matrix& density,
                                 parallel::ThreadPool* pool) const {
  const obs::Trace::Scope span(obs::global_trace(), "dft.xc");
  const std::size_t nao = basis_.num_functions();
  const VPart zero{{Matrix(nao, nao)}};

  const auto chunk = [&](std::size_t begin, std::size_t end, VPart& part) {
    std::vector<double> pphi(nao);  // (P phi) at the current point
    std::vector<double> pblock, wblock;  // the run's P and V blocks
    for (std::size_t g = begin; g < end;) {
      const std::size_t stop = run_end(g, end);
      const Row r0 = row(g);
      gather(density, r0.idx, r0.n, pblock);
      wblock.assign(r0.n * r0.n, 0.0);
      for (; g < stop; ++g) {
        const double w = grid_.points()[g].weight;
        const Row r = row(g);
        const PointDensity d = point_density(
            r, pblock.data(), functional.needs_gradient, pphi.data());
        if (d.rho < 1e-12) continue;
        part.density += w * d.rho;
        const XcPoint x = functional.evaluate(d.rho, d.sigma);
        part.energy += w * x.e;

        // V += t phi^T + phi t^T with t = (w vrho / 2) phi +
        // (2 w vsigma) (grad rho . grad phi); the partial keeps
        // t phi^T.
        for (std::size_t mu = 0; mu < r.n; ++mu) {
          const double dot =
              d.dx * r.gx[mu] + d.dy * r.gy[mu] + d.dz * r.gz[mu];
          const double t =
              0.5 * w * x.vrho * r.phi[mu] + 2.0 * w * x.vsigma * dot;
          double* wrow = wblock.data() + mu * r.n;
          for (std::size_t nu = 0; nu < r.n; ++nu)
            wrow[nu] += t * r.phi[nu];
        }
      }
      scatter_add(wblock, r0.idx, r0.n, part.w[0]);
    }
  };
  const VPart total = run_chunks(chunk_end_, pool, zero, chunk);

  XcResult result;
  result.energy = total.energy;
  result.integrated_density = total.density;
  result.v = symmetric_sum(total.w[0]);
  return result;
}

std::vector<chem::Vec3> XcIntegrator::gradient(
    const Functional& functional, const Matrix& density,
    const chem::Molecule& mol, parallel::ThreadPool* pool) const {
  const obs::Trace::Scope span(obs::global_trace(), "dft.xc_grad");
  const std::size_t nao = basis_.num_functions();
  const bool gga = functional.needs_gradient;
  std::size_t max_nf = 0;
  for (const chem::Shell& sh : basis_.shells())
    max_nf = std::max(max_nf, sh.num_functions());
  const GradPart zero{std::vector<chem::Vec3>(mol.size(), {0, 0, 0})};

  const auto chunk = [&](std::size_t begin, std::size_t end, GradPart& part) {
    std::vector<chem::Vec3>& grad = part.g;
    std::vector<double> pphi(nao), pgx(nao), pgy(nao), pgz(nao);
    // One shell's AO Hessians, xx, xy, xz, yy, yz, zz blocks of max_nf.
    std::vector<double> hess(6 * max_nf), pblock;
    double* hxx = hess.data();
    double* hxy = hxx + max_nf;
    double* hxz = hxy + max_nf;
    double* hyy = hxz + max_nf;
    double* hyz = hyy + max_nf;
    double* hzz = hyz + max_nf;

    for (std::size_t g = begin, stop = begin; g < end; ++g) {
      const GridPoint& gp = grid_.points()[g];
      const double w = gp.weight;
      const Row r = row(g);
      if (g == stop) {
        stop = run_end(g, end);
        gather(density, r.idx, r.n, pblock);
      }
      const PointDensity d = point_density(r, pblock.data(), gga, pphi.data());
      if (d.rho < 1e-12) continue;
      const XcPoint x = functional.evaluate(d.rho, d.sigma);

      if (gga) {
        // P grad(phi) over the row, for the d(sigma)/dR term.
        for (std::size_t mu = 0; mu < r.n; ++mu) {
          double tx = 0.0, ty = 0.0, tz = 0.0;
          for (std::size_t nu = 0; nu < r.n; ++nu) {
            const double pmn = pblock[mu * r.n + nu];
            tx += pmn * r.gx[nu];
            ty += pmn * r.gy[nu];
            tz += pmn * r.gz[nu];
          }
          pgx[mu] = tx;
          pgy[mu] = ty;
          pgz[mu] = tz;
        }
      }

      // Orbital terms: X_C = vrho drho/dR_C + vsigma dsigma/dR_C at fixed
      // point, accumulated per owning atom; the grid point riding on its
      // parent atom contributes -sum_C X_C there (translational
      // invariance of rho and sigma under a rigid shift).
      chem::Vec3 x_total{0, 0, 0};
      std::size_t mu = 0;
      for (std::size_t k = shell_off_[g]; k < shell_off_[g + 1]; ++k) {
        const chem::Shell& sh = basis_.shell(shells_[k]);
        if (gga)
          basis_.evaluate_shell_with_hessian(shells_[k], gp.pos, hxx, hxy,
                                             hxz, hyy, hyz, hzz);
        for (std::size_t c = 0; c < sh.num_functions(); ++c, ++mu) {
          const chem::Vec3 dphi{r.gx[mu], r.gy[mu], r.gz[mu]};
          chem::Vec3 x_mu = (-2.0 * x.vrho * pphi[mu]) * dphi;
          if (gga) {
            // (Hessian of phi_mu) . grad rho
            const chem::Vec3 hdr{
                hxx[c] * d.dx + hxy[c] * d.dy + hxz[c] * d.dz,
                hxy[c] * d.dx + hyy[c] * d.dy + hyz[c] * d.dz,
                hxz[c] * d.dx + hyz[c] * d.dy + hzz[c] * d.dz};
            const double gdotpg = d.dx * pgx[mu] + d.dy * pgy[mu] +
                                  d.dz * pgz[mu];
            x_mu = x_mu +
                   (-4.0 * x.vsigma) * (pphi[mu] * hdr + gdotpg * dphi);
          }
          grad[sh.atom_index()] = grad[sh.atom_index()] + w * x_mu;
          x_total = x_total + x_mu;
        }
      }
      grad[gp.parent] = grad[gp.parent] - w * x_total;

      // Grid-weight term: w = w0 * P_parent with w0 the (geometry-
      // independent) radial x angular weight. dP uses the same
      // translational-invariance correction for the moving point.
      if (gp.becke > 0.0 && mol.size() > 1) {
        const double w0 = w / gp.becke;
        const auto dp = becke_weight_gradient(mol, gp.parent, gp.pos);
        chem::Vec3 dp_total{0, 0, 0};
        for (std::size_t b = 0; b < mol.size(); ++b) {
          grad[b] = grad[b] + (w0 * x.e) * dp[b];
          dp_total = dp_total + dp[b];
        }
        grad[gp.parent] = grad[gp.parent] - (w0 * x.e) * dp_total;
      }
    }
  };
  return run_chunks(chunk_end_, pool, zero, chunk).g;
}

XcSpinResult XcIntegrator::integrate_spin(const SpinFunctional& functional,
                                          const Matrix& density_alpha,
                                          const Matrix& density_beta,
                                          parallel::ThreadPool* pool) const {
  const obs::Trace::Scope span(obs::global_trace(), "dft.xc");
  const std::size_t nao = basis_.num_functions();
  const bool gga = functional.needs_gradient;
  const VPart zero{{Matrix(nao, nao), Matrix(nao, nao)}};

  const auto chunk = [&](std::size_t begin, std::size_t end, VPart& part) {
    std::vector<double> pa_phi(nao), pb_phi(nao);
    std::vector<double> pa_block, pb_block, wa_block, wb_block;
    for (std::size_t g = begin; g < end;) {
      const std::size_t stop = run_end(g, end);
      const Row r0 = row(g);
      gather(density_alpha, r0.idx, r0.n, pa_block);
      gather(density_beta, r0.idx, r0.n, pb_block);
      wa_block.assign(r0.n * r0.n, 0.0);
      wb_block.assign(r0.n * r0.n, 0.0);
      for (; g < stop; ++g) {
        const double w = grid_.points()[g].weight;
        const Row r = row(g);
        const PointDensity a =
            point_density(r, pa_block.data(), gga, pa_phi.data());
        const PointDensity b =
            point_density(r, pb_block.data(), gga, pb_phi.data());
        SpinDensity d;
        d.rho_a = a.rho;
        d.rho_b = b.rho;
        if (d.rho() < 1e-12) continue;
        part.density += w * d.rho();
        d.sigma_aa = a.sigma;
        d.sigma_bb = b.sigma;
        d.sigma_ab = a.dx * b.dx + a.dy * b.dy + a.dz * b.dz;

        const SpinXcPoint x = functional.evaluate(d);
        part.energy += w * x.e;

        // V_a += w [vra phi phi^T + (2 vsaa grad_a + vsab grad_b).
        // (grad(phi) phi^T + phi grad(phi)^T)]; same for beta with labels
        // swapped. The partials keep the t phi^T halves.
        for (std::size_t mu = 0; mu < r.n; ++mu) {
          const double da =
              a.dx * r.gx[mu] + a.dy * r.gy[mu] + a.dz * r.gz[mu];
          const double db =
              b.dx * r.gx[mu] + b.dy * r.gy[mu] + b.dz * r.gz[mu];
          const double ta = 0.5 * w * x.vrho_a * r.phi[mu] +
                            w * (2.0 * x.vsigma_aa * da + x.vsigma_ab * db);
          const double tb = 0.5 * w * x.vrho_b * r.phi[mu] +
                            w * (2.0 * x.vsigma_bb * db + x.vsigma_ab * da);
          double* wa = wa_block.data() + mu * r.n;
          double* wb = wb_block.data() + mu * r.n;
          for (std::size_t nu = 0; nu < r.n; ++nu) {
            wa[nu] += ta * r.phi[nu];
            wb[nu] += tb * r.phi[nu];
          }
        }
      }
      scatter_add(wa_block, r0.idx, r0.n, part.w[0]);
      scatter_add(wb_block, r0.idx, r0.n, part.w[1]);
    }
  };
  const VPart total = run_chunks(chunk_end_, pool, zero, chunk);

  XcSpinResult result;
  result.energy = total.energy;
  result.integrated_density = total.density;
  result.v_alpha = symmetric_sum(total.w[0]);
  result.v_beta = symmetric_sum(total.w[1]);
  return result;
}

}  // namespace mthfx::dft
