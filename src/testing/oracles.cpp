#include "testing/oracles.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "ints/hermite.hpp"

namespace mthfx::testing {

using chem::BasisSet;
using linalg::Matrix;

DenseHermitePair::DenseHermitePair(const chem::Shell& a, const chem::Shell& b)
    : lab(a.l() + b.l()),
      powers_a(chem::cartesian_powers(a.l())),
      powers_b(chem::cartesian_powers(b.l())) {
  const std::size_t n1 = static_cast<std::size_t>(lab + 1);
  const std::size_t box = n1 * n1 * n1;
  const chem::Vec3& ca = a.center();
  const chem::Vec3& cb = b.center();
  for (std::size_t i = 0; i < a.num_primitives(); ++i)
    for (std::size_t j = 0; j < b.num_primitives(); ++j) {
      const double ea = a.exponents()[i];
      const double eb = b.exponents()[j];
      const ints::HermiteE ex(a.l(), b.l(), ea, eb, ca.x - cb.x);
      const ints::HermiteE ey(a.l(), b.l(), ea, eb, ca.y - cb.y);
      const ints::HermiteE ez(a.l(), b.l(), ea, eb, ca.z - cb.z);
      Prim prim;
      prim.p = ea + eb;
      prim.center = (1.0 / prim.p) * (ea * ca + eb * cb);
      prim.box.assign(powers_a.size() * powers_b.size() * box, 0.0);
      std::size_t comp = 0;
      for (std::size_t ia = 0; ia < powers_a.size(); ++ia)
        for (std::size_t ib = 0; ib < powers_b.size(); ++ib, ++comp) {
          const chem::CartPowers& pa = powers_a[ia];
          const chem::CartPowers& pb = powers_b[ib];
          const double cc = a.norm_coef(i, ia) * b.norm_coef(j, ib);
          double* dst = prim.box.data() + comp * box;
          for (int t = 0; t <= pa.x + pb.x; ++t)
            for (int u = 0; u <= pa.y + pb.y; ++u)
              for (int v = 0; v <= pa.z + pb.z; ++v)
                dst[(static_cast<std::size_t>(t) * n1 +
                     static_cast<std::size_t>(u)) *
                        n1 +
                    static_cast<std::size_t>(v)] =
                    cc * ex(pa.x, pb.x, t) * ey(pa.y, pb.y, u) *
                    ez(pa.z, pb.z, v);
        }
      prims.push_back(std::move(prim));
    }
}

void dense_reference_quartet(const DenseHermitePair& bra,
                             const DenseHermitePair& ket,
                             ints::EriBlock& out) {
  out.na = bra.powers_a.size();
  out.nb = bra.powers_b.size();
  out.nc = ket.powers_a.size();
  out.nd = ket.powers_b.size();
  out.values.assign(out.na * out.nb * out.nc * out.nd, 0.0);

  const std::size_t nb1 = static_cast<std::size_t>(bra.lab + 1);
  const std::size_t kb1 = static_cast<std::size_t>(ket.lab + 1);
  const std::size_t bra_box = nb1 * nb1 * nb1;
  const std::size_t ket_box = kb1 * kb1 * kb1;
  const double pi52 = 2.0 * std::pow(std::numbers::pi, 2.5);
  const auto at = [](const double* box, std::size_t n1, int t, int u, int v) {
    return box[(static_cast<std::size_t>(t) * n1 +
                static_cast<std::size_t>(u)) *
                   n1 +
               static_cast<std::size_t>(v)];
  };

  for (const auto& bp : bra.prims)
    for (const auto& kp : ket.prims) {
      const double p = bp.p, q = kp.p;
      const double pref = pi52 / (p * q * std::sqrt(p + q));
      const chem::Vec3 pq = bp.center - kp.center;
      const ints::HermiteR r(bra.lab + ket.lab, p * q / (p + q), pq.x, pq.y,
                             pq.z);
      std::size_t braq = 0;
      for (std::size_t ia = 0; ia < out.na; ++ia)
        for (std::size_t ib = 0; ib < out.nb; ++ib, ++braq) {
          const chem::CartPowers& pa = bra.powers_a[ia];
          const chem::CartPowers& pb = bra.powers_b[ib];
          const double* eb = bp.box.data() + braq * bra_box;
          std::size_t ketq = 0;
          for (std::size_t ic = 0; ic < out.nc; ++ic)
            for (std::size_t id = 0; id < out.nd; ++id, ++ketq) {
              const chem::CartPowers& pc = ket.powers_a[ic];
              const chem::CartPowers& pd = ket.powers_b[id];
              const double* ek = kp.box.data() + ketq * ket_box;
              double sum = 0.0;
              for (int t = 0; t <= pa.x + pb.x; ++t)
                for (int u = 0; u <= pa.y + pb.y; ++u)
                  for (int v = 0; v <= pa.z + pb.z; ++v) {
                    double inner = 0.0;
                    for (int tt = 0; tt <= pc.x + pd.x; ++tt)
                      for (int uu = 0; uu <= pc.y + pd.y; ++uu)
                        for (int vv = 0; vv <= pc.z + pd.z; ++vv) {
                          const double term = at(ek, kb1, tt, uu, vv) *
                                              r(t + tt, u + uu, v + vv);
                          inner += ((tt + uu + vv) & 1) ? -term : term;
                        }
                    sum += at(eb, nb1, t, u, v) * inner;
                  }
              out.values[((ia * out.nb + ib) * out.nc + ic) * out.nd + id] +=
                  pref * sum;
            }
        }
    }
}

namespace {

// E tables of one primitive pair raised by one order on both centers
// (the shift relation's i+1 terms), with its exponent sum and center.
struct RaisedPairTables {
  RaisedPairTables(const chem::Shell& a, const chem::Shell& b, std::size_t ia,
                   std::size_t ib)
      : ea(a.exponents()[ia]),
        eb(b.exponents()[ib]),
        p(ea + eb),
        center((1.0 / p) * (ea * a.center() + eb * b.center())),
        ex(a.l() + 1, b.l() + 1, ea, eb, a.center().x - b.center().x),
        ey(a.l() + 1, b.l() + 1, ea, eb, a.center().y - b.center().y),
        ez(a.l() + 1, b.l() + 1, ea, eb, a.center().z - b.center().z) {}
  double ea, eb, p;
  chem::Vec3 center;
  ints::HermiteE ex, ey, ez;
};

}  // namespace

ints::EriGradBlocks reference_eri_gradient_blocks(const chem::Shell& a,
                                                  const chem::Shell& b,
                                                  const chem::Shell& c,
                                                  const chem::Shell& d) {
  const auto pa = chem::cartesian_powers(a.l());
  const auto pb = chem::cartesian_powers(b.l());
  const auto pc = chem::cartesian_powers(c.l());
  const auto pd = chem::cartesian_powers(d.l());
  const std::size_t nblock = pa.size() * pb.size() * pc.size() * pd.size();
  ints::EriGradBlocks out;
  for (auto& center : out.g)
    for (auto& dir : center) dir.assign(nblock, 0.0);

  const int lsum = a.l() + b.l() + c.l() + d.l();
  const double pi52 = 2.0 * std::pow(std::numbers::pi, 2.5);

  for (std::size_t ia = 0; ia < a.num_primitives(); ++ia) {
    for (std::size_t ib = 0; ib < b.num_primitives(); ++ib) {
      const RaisedPairTables bra(a, b, ia, ib);
      for (std::size_t ic = 0; ic < c.num_primitives(); ++ic) {
        for (std::size_t id = 0; id < d.num_primitives(); ++id) {
          const RaisedPairTables ket(c, d, ic, id);
          const double p = bra.p, q = ket.p;
          const double alpha = p * q / (p + q);
          const chem::Vec3 pq = bra.center - ket.center;
          const ints::HermiteR r(lsum + 1, alpha, pq.x, pq.y, pq.z);
          const double pref = pi52 / (p * q * std::sqrt(p + q));

          const ints::HermiteE* be[3] = {&bra.ex, &bra.ey, &bra.ez};
          const ints::HermiteE* ke[3] = {&ket.ex, &ket.ey, &ket.ez};

          // Full contraction with arbitrary powers on all four indices.
          auto eri = [&](const int qa[3], const int qb[3], const int qc[3],
                         const int qd[3]) {
            for (int dd = 0; dd < 3; ++dd)
              if (qa[dd] < 0 || qb[dd] < 0 || qc[dd] < 0 || qd[dd] < 0)
                return 0.0;
            double sum = 0.0;
            for (int tt = 0; tt <= qa[0] + qb[0]; ++tt)
              for (int uu = 0; uu <= qa[1] + qb[1]; ++uu)
                for (int vv = 0; vv <= qa[2] + qb[2]; ++vv) {
                  const double ebv = (*be[0])(qa[0], qb[0], tt) *
                                     (*be[1])(qa[1], qb[1], uu) *
                                     (*be[2])(qa[2], qb[2], vv);
                  if (ebv == 0.0) continue;
                  for (int t2 = 0; t2 <= qc[0] + qd[0]; ++t2)
                    for (int u2 = 0; u2 <= qc[1] + qd[1]; ++u2)
                      for (int v2 = 0; v2 <= qc[2] + qd[2]; ++v2) {
                        const double ekv = (*ke[0])(qc[0], qd[0], t2) *
                                           (*ke[1])(qc[1], qd[1], u2) *
                                           (*ke[2])(qc[2], qd[2], v2);
                        if (ekv == 0.0) continue;
                        const double sign =
                            ((t2 + u2 + v2) % 2 == 0) ? 1.0 : -1.0;
                        sum += ebv * ekv * sign *
                               r(tt + t2, uu + u2, vv + v2);
                      }
                }
            return sum;
          };

          const double expos[3] = {bra.ea, bra.eb, ket.ea};

          std::size_t idx = 0;
          for (std::size_t caa = 0; caa < pa.size(); ++caa) {
            const int qa0[3] = {pa[caa].x, pa[caa].y, pa[caa].z};
            for (std::size_t cbb = 0; cbb < pb.size(); ++cbb) {
              const int qb0[3] = {pb[cbb].x, pb[cbb].y, pb[cbb].z};
              for (std::size_t ccc = 0; ccc < pc.size(); ++ccc) {
                const int qc0[3] = {pc[ccc].x, pc[ccc].y, pc[ccc].z};
                for (std::size_t cdd = 0; cdd < pd.size(); ++cdd, ++idx) {
                  const int qd0[3] = {pd[cdd].x, pd[cdd].y, pd[cdd].z};
                  const double cc = a.norm_coef(ia, caa) *
                                    b.norm_coef(ib, cbb) *
                                    c.norm_coef(ic, ccc) *
                                    d.norm_coef(id, cdd) * pref;
                  for (int center = 0; center < 3; ++center) {
                    for (std::size_t dd = 0; dd < 3; ++dd) {
                      int qa[3] = {qa0[0], qa0[1], qa0[2]};
                      int qb[3] = {qb0[0], qb0[1], qb0[2]};
                      int qc[3] = {qc0[0], qc0[1], qc0[2]};
                      int* mut = center == 0 ? qa : center == 1 ? qb : qc;
                      const int orig = mut[dd];
                      mut[dd] = orig + 1;
                      double val = 2.0 * expos[center] * eri(qa, qb, qc, qd0);
                      mut[dd] = orig - 1;
                      if (orig > 0) val -= orig * eri(qa, qb, qc, qd0);
                      mut[dd] = orig;
                      out.g[static_cast<std::size_t>(center)][dd][idx] +=
                          cc * val;
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

std::vector<double> naive_eri_tensor(const BasisSet& basis) {
  const std::size_t n = basis.num_functions();
  const std::size_t ns = basis.num_shells();
  std::vector<double> tensor(n * n * n * n, 0.0);
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb < ns; ++sb)
      for (std::size_t sc = 0; sc < ns; ++sc)
        for (std::size_t sd = 0; sd < ns; ++sd) {
          const ints::EriBlock block = ints::eri_shell_quartet(
              basis.shell(sa), basis.shell(sb), basis.shell(sc),
              basis.shell(sd));
          const std::size_t oa = basis.first_function(sa);
          const std::size_t ob = basis.first_function(sb);
          const std::size_t oc = basis.first_function(sc);
          const std::size_t od = basis.first_function(sd);
          for (std::size_t i = 0; i < block.na; ++i)
            for (std::size_t j = 0; j < block.nb; ++j)
              for (std::size_t k = 0; k < block.nc; ++k)
                for (std::size_t l = 0; l < block.nd; ++l)
                  tensor[(((oa + i) * n + (ob + j)) * n + (oc + k)) * n +
                         (od + l)] = block(i, j, k, l);
        }
  return tensor;
}

DenseJk contract_jk(const BasisSet& basis, const std::vector<double>& tensor,
                    const Matrix& density) {
  const std::size_t n = basis.num_functions();
  if (tensor.size() != n * n * n * n)
    throw std::invalid_argument("contract_jk: tensor/basis size mismatch");
  DenseJk out{Matrix(n, n), Matrix(n, n)};
  for (std::size_t mu = 0; mu < n; ++mu)
    for (std::size_t nu = 0; nu < n; ++nu)
      for (std::size_t lam = 0; lam < n; ++lam)
        for (std::size_t sig = 0; sig < n; ++sig) {
          const double p = density(lam, sig);
          out.j(mu, nu) += p * tensor[((mu * n + nu) * n + lam) * n + sig];
          out.k(mu, nu) += p * tensor[((mu * n + lam) * n + nu) * n + sig];
        }
  return out;
}

DenseJk dense_jk_reference(const BasisSet& basis, const Matrix& density) {
  return contract_jk(basis, naive_eri_tensor(basis), density);
}

DenseJk orbit_jk_reference(const BasisSet& basis,
                           const std::vector<double>& tensor,
                           const Matrix& density) {
  const std::size_t n = basis.num_functions();
  if (tensor.size() != n * n * n * n)
    throw std::invalid_argument("orbit_jk_reference: size mismatch");
  DenseJk out{Matrix(n, n), Matrix(n, n)};
  using Quad = std::array<std::size_t, 4>;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      for (std::size_t k = 0; k <= i; ++k)
        for (std::size_t l = 0; l <= k; ++l) {
          // Canonical quartet: i >= j, k >= l, pair(ij) >= pair(kl).
          if (i * (i + 1) / 2 + j < k * (k + 1) / 2 + l) continue;
          const double v = tensor[((i * n + j) * n + k) * n + l];
          // Enumerate the full 8-member permutational orbit and apply
          // the plain update once per *distinct* member.
          const Quad orbit[8] = {{i, j, k, l}, {j, i, k, l}, {i, j, l, k},
                                 {j, i, l, k}, {k, l, i, j}, {l, k, i, j},
                                 {k, l, j, i}, {l, k, j, i}};
          Quad seen[8];
          std::size_t nseen = 0;
          for (const Quad& q : orbit) {
            bool dup = false;
            for (std::size_t s = 0; s < nseen; ++s)
              if (seen[s] == q) {
                dup = true;
                break;
              }
            if (dup) continue;
            seen[nseen++] = q;
            const auto [a, b, c, d] = q;
            out.j(a, b) += density(c, d) * v;
            out.k(a, c) += density(b, d) * v;
          }
        }
  return out;
}

Matrix serial_reduce(const std::vector<Matrix>& parts) {
  if (parts.empty()) return Matrix();
  Matrix sum(parts.front().rows(), parts.front().cols());
  for (const Matrix& p : parts) sum += p;
  return sum;
}

double coulomb_energy_from_tensor(const BasisSet& basis,
                                  const std::vector<double>& tensor,
                                  const Matrix& density) {
  const std::size_t n = basis.num_functions();
  double e = 0.0;
  for (std::size_t mu = 0; mu < n; ++mu)
    for (std::size_t nu = 0; nu < n; ++nu)
      for (std::size_t lam = 0; lam < n; ++lam)
        for (std::size_t sig = 0; sig < n; ++sig)
          e += density(mu, nu) * density(lam, sig) *
               tensor[((mu * n + nu) * n + lam) * n + sig];
  return 0.5 * e;
}

double exchange_energy_from_tensor(const BasisSet& basis,
                                   const std::vector<double>& tensor,
                                   const Matrix& density) {
  const std::size_t n = basis.num_functions();
  double e = 0.0;
  for (std::size_t mu = 0; mu < n; ++mu)
    for (std::size_t nu = 0; nu < n; ++nu)
      for (std::size_t lam = 0; lam < n; ++lam)
        for (std::size_t sig = 0; sig < n; ++sig)
          e += density(mu, nu) * density(lam, sig) *
               tensor[((mu * n + lam) * n + nu) * n + sig];
  return 0.5 * e;
}

namespace {

// [f(x + h) - f(x - h)] / 2h at h = 1e-6 |x|, with f(x) the energy at
// variable value x; 0 at x = 0.
template <class F>
double central_difference(double x, F f) {
  const double h = 1e-6 * std::abs(x);
  return h > 0.0 ? (f(x + h) - f(x - h)) / (2.0 * h) : 0.0;
}

}  // namespace

dft::XcPoint central_difference_xc(
    const std::function<double(double, double)>& energy, double rho,
    double sigma) {
  dft::XcPoint p;
  p.e = energy(rho, sigma);
  p.vrho = central_difference(rho, [&](double x) { return energy(x, sigma); });
  p.vsigma =
      central_difference(sigma, [&](double x) { return energy(rho, x); });
  return p;
}

dft::SpinXcPoint central_difference_spin_xc(
    const std::function<double(const dft::SpinDensity&)>& energy,
    const dft::SpinDensity& d) {
  const auto partial = [&](double dft::SpinDensity::*var) {
    return central_difference(d.*var, [&](double x) {
      dft::SpinDensity moved = d;
      moved.*var = x;
      return energy(moved);
    });
  };
  dft::SpinXcPoint p;
  p.e = energy(d);
  p.vrho_a = partial(&dft::SpinDensity::rho_a);
  p.vrho_b = partial(&dft::SpinDensity::rho_b);
  p.vsigma_aa = partial(&dft::SpinDensity::sigma_aa);
  p.vsigma_ab = partial(&dft::SpinDensity::sigma_ab);
  p.vsigma_bb = partial(&dft::SpinDensity::sigma_bb);
  return p;
}

dft::XcResult dense_xc_reference(const BasisSet& basis,
                                 const dft::MolecularGrid& grid,
                                 const dft::Functional& functional,
                                 const Matrix& density) {
  const std::size_t n = basis.num_functions();
  dft::XcResult result;
  result.v = Matrix(n, n);
  std::vector<double> phi, dx, dy, dz, pphi(n);
  for (const dft::GridPoint& gp : grid.points()) {
    basis.evaluate_with_gradient(gp.pos, phi, dx, dy, dz);
    double rho = 0.0, gr[3] = {0.0, 0.0, 0.0};
    for (std::size_t mu = 0; mu < n; ++mu) {
      pphi[mu] = 0.0;
      for (std::size_t nu = 0; nu < n; ++nu)
        pphi[mu] += density(mu, nu) * phi[nu];
      rho += pphi[mu] * phi[mu];
      if (functional.needs_gradient) {
        gr[0] += 2.0 * pphi[mu] * dx[mu];
        gr[1] += 2.0 * pphi[mu] * dy[mu];
        gr[2] += 2.0 * pphi[mu] * dz[mu];
      }
    }
    if (rho < 1e-12) continue;
    const double sigma = gr[0] * gr[0] + gr[1] * gr[1] + gr[2] * gr[2];
    const double w = gp.weight;
    result.integrated_density += w * rho;
    const dft::XcPoint x = functional.evaluate(rho, sigma);
    result.energy += w * x.e;
    // V_mn += w [vrho phi_m phi_n + 2 vsigma grad rho . grad(phi_m phi_n)]
    for (std::size_t mu = 0; mu < n; ++mu)
      for (std::size_t nu = 0; nu < n; ++nu) {
        const double gm = gr[0] * dx[mu] + gr[1] * dy[mu] + gr[2] * dz[mu];
        const double gn = gr[0] * dx[nu] + gr[1] * dy[nu] + gr[2] * dz[nu];
        result.v(mu, nu) +=
            w * (x.vrho * phi[mu] * phi[nu] +
                 2.0 * x.vsigma * (gm * phi[nu] + phi[mu] * gn));
      }
  }
  return result;
}

}  // namespace mthfx::testing
