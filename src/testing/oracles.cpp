#include "testing/oracles.hpp"

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

}  // namespace mthfx::testing
