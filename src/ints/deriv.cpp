#include "ints/deriv.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>

#include "ints/hermite.hpp"
#include "ints/hermite_fixed.hpp"

namespace mthfx::ints {

using chem::cartesian_powers;
using chem::CartPowers;
using chem::Shell;
using chem::Vec3;
using linalg::Matrix;

namespace {

// 1-D overlap factor from an E table (zero for negative powers).
double s1(const HermiteE& e, int i, int j) {
  if (i < 0 || j < 0) return 0.0;
  return e(i, j, 0);
}

struct PairTables {
  HermiteE ex, ey, ez;
  double p;
  Vec3 pcen;
};

PairTables tables(const Shell& a, const Shell& b, std::size_t pa,
                  std::size_t pb, int extra_i, int extra_j) {
  const double ea = a.exponents()[pa];
  const double eb = b.exponents()[pb];
  const double p = ea + eb;
  const Vec3& ca = a.center();
  const Vec3& cb = b.center();
  return {HermiteE(a.l() + extra_i, b.l() + extra_j, ea, eb, ca.x - cb.x),
          HermiteE(a.l() + extra_i, b.l() + extra_j, ea, eb, ca.y - cb.y),
          HermiteE(a.l() + extra_i, b.l() + extra_j, ea, eb, ca.z - cb.z),
          p,
          (1.0 / p) * (ea * ca + eb * cb)};
}

// Derivative-kernel capacity: E tables to (la+1, lb+1) and a Coulomb
// tensor one order above the value kernel's, for f shells on every
// center (kEriMaxL).
using E1dDeriv = detail::E1d<kEriMaxL + 1, kEriMaxL + 1>;
using RTensorDeriv = detail::RTensor<kEriMaxTuv + 1>;

// Per-thread scratch of eri_gradient_quartet, allocated on the thread's
// first quartet and reused: the Coulomb tensor, the R offsets of the bra
// points and the two ket panels. Heap rather than static thread_local
// storage, so threads that never run the gradient carry none of it.
struct GradScratch {
  RTensorDeriv r;
  std::vector<std::uint32_t> rbase_d, rbase_p;
  std::vector<double> panel, cpanel;
};

thread_local std::unique_ptr<GradScratch> tls_grad;

GradScratch& grad_scratch() {
  // Default-initialised: the tensor's pages are touched only as used.
  if (!tls_grad) tls_grad.reset(new GradScratch);
  return *tls_grad;
}

}  // namespace

std::array<Matrix, 3> overlap_gradient_block(const Shell& a, const Shell& b) {
  const auto pa = cartesian_powers(a.l());
  const auto pb = cartesian_powers(b.l());
  std::array<Matrix, 3> grad{Matrix(pa.size(), pb.size()),
                             Matrix(pa.size(), pb.size()),
                             Matrix(pa.size(), pb.size())};
  for (std::size_t i = 0; i < a.num_primitives(); ++i) {
    const double ea = a.exponents()[i];
    for (std::size_t j = 0; j < b.num_primitives(); ++j) {
      const PairTables t = tables(a, b, i, j, /*extra_i=*/1, 0);
      const double pref = std::pow(std::numbers::pi / t.p, 1.5);
      const HermiteE* es[3] = {&t.ex, &t.ey, &t.ez};
      for (std::size_t ca = 0; ca < pa.size(); ++ca) {
        const int ia[3] = {pa[ca].x, pa[ca].y, pa[ca].z};
        for (std::size_t cb = 0; cb < pb.size(); ++cb) {
          const int jb[3] = {pb[cb].x, pb[cb].y, pb[cb].z};
          const double cc = a.norm_coef(i, ca) * b.norm_coef(j, cb) * pref;
          for (std::size_t d = 0; d < 3; ++d) {
            // d/dA_d = 2a (i_d + 1 raised) - i_d (lowered), other dims
            // unchanged.
            double val = 2.0 * ea * s1(*es[d], ia[d] + 1, jb[d]);
            if (ia[d] > 0) val -= ia[d] * s1(*es[d], ia[d] - 1, jb[d]);
            for (std::size_t o = 0; o < 3; ++o)
              if (o != d) val *= s1(*es[o], ia[o], jb[o]);
            grad[d](ca, cb) += cc * val;
          }
        }
      }
    }
  }
  return grad;
}

std::array<Matrix, 3> kinetic_gradient_block(const Shell& a, const Shell& b) {
  const auto pa = cartesian_powers(a.l());
  const auto pb = cartesian_powers(b.l());
  std::array<Matrix, 3> grad{Matrix(pa.size(), pb.size()),
                             Matrix(pa.size(), pb.size()),
                             Matrix(pa.size(), pb.size())};
  for (std::size_t i = 0; i < a.num_primitives(); ++i) {
    const double ea = a.exponents()[i];
    for (std::size_t j = 0; j < b.num_primitives(); ++j) {
      const double eb = b.exponents()[j];
      // Bra raised by 1, ket raised by 2 (kinetic ladder).
      const PairTables t = tables(a, b, i, j, 1, 2);
      const double pref = std::pow(std::numbers::pi / t.p, 1.5);
      const HermiteE* es[3] = {&t.ex, &t.ey, &t.ez};

      // Kinetic 1-D factor with arbitrary bra power.
      auto t1 = [&](const HermiteE& e, int ia, int jb) {
        if (ia < 0) return 0.0;
        double v = -2.0 * eb * eb * s1(e, ia, jb + 2) +
                   eb * (2 * jb + 1) * s1(e, ia, jb);
        if (jb >= 2) v -= 0.5 * jb * (jb - 1) * s1(e, ia, jb - 2);
        return v;
      };
      // Full kinetic element for arbitrary bra powers q[3].
      auto kin = [&](const int q[3], const int jb[3]) {
        if (q[0] < 0 || q[1] < 0 || q[2] < 0) return 0.0;
        return t1(*es[0], q[0], jb[0]) * s1(*es[1], q[1], jb[1]) *
                   s1(*es[2], q[2], jb[2]) +
               s1(*es[0], q[0], jb[0]) * t1(*es[1], q[1], jb[1]) *
                   s1(*es[2], q[2], jb[2]) +
               s1(*es[0], q[0], jb[0]) * s1(*es[1], q[1], jb[1]) *
                   t1(*es[2], q[2], jb[2]);
      };

      for (std::size_t ca = 0; ca < pa.size(); ++ca) {
        const int ia[3] = {pa[ca].x, pa[ca].y, pa[ca].z};
        for (std::size_t cb = 0; cb < pb.size(); ++cb) {
          const int jb[3] = {pb[cb].x, pb[cb].y, pb[cb].z};
          const double cc = a.norm_coef(i, ca) * b.norm_coef(j, cb) * pref;
          for (std::size_t d = 0; d < 3; ++d) {
            int up[3] = {ia[0], ia[1], ia[2]};
            int dn[3] = {ia[0], ia[1], ia[2]};
            ++up[d];
            --dn[d];
            double val = 2.0 * ea * kin(up, jb);
            if (ia[d] > 0) val -= ia[d] * kin(dn, jb);
            grad[d](ca, cb) += cc * val;
          }
        }
      }
    }
  }
  return grad;
}

std::vector<std::array<Matrix, 3>> nuclear_gradient_blocks(
    const Shell& a, const Shell& b, const chem::Molecule& mol) {
  const auto pa = cartesian_powers(a.l());
  const auto pb = cartesian_powers(b.l());
  std::vector<std::array<Matrix, 3>> grads(
      mol.size(), {Matrix(pa.size(), pb.size()), Matrix(pa.size(), pb.size()),
                   Matrix(pa.size(), pb.size())});

  const int lsum = a.l() + b.l();

  for (std::size_t i = 0; i < a.num_primitives(); ++i) {
    const double ea = a.exponents()[i];
    for (std::size_t j = 0; j < b.num_primitives(); ++j) {
      const double eb = b.exponents()[j];
      const PairTables t = tables(a, b, i, j, 1, 1);
      const double pref = 2.0 * std::numbers::pi / t.p;
      const HermiteE* es[3] = {&t.ex, &t.ey, &t.ez};

      for (std::size_t c = 0; c < mol.size(); ++c) {
        const chem::Atom& atom = mol.atom(c);
        const Vec3 pc = t.pcen - atom.pos;
        // One extra order for the operator-center ladder.
        const HermiteR r(lsum + 2, t.p, pc.x, pc.y, pc.z);

        // V element for arbitrary powers on both sides, with an optional
        // +1 shift in the Hermite index of direction `rshift` (for the
        // operator-center derivative).
        auto velem = [&](const int qa[3], const int qb[3], int rshift) {
          if (qa[0] < 0 || qa[1] < 0 || qa[2] < 0) return 0.0;
          double v = 0.0;
          for (int tt = 0; tt <= qa[0] + qb[0]; ++tt)
            for (int uu = 0; uu <= qa[1] + qb[1]; ++uu)
              for (int ww = 0; ww <= qa[2] + qb[2]; ++ww) {
                int ridx[3] = {tt, uu, ww};
                if (rshift >= 0) ++ridx[rshift];
                v += (*es[0])(qa[0], qb[0], tt) * (*es[1])(qa[1], qb[1], uu) *
                     (*es[2])(qa[2], qb[2], ww) *
                     r(ridx[0], ridx[1], ridx[2]);
              }
          return v;
        };

        for (std::size_t ca = 0; ca < pa.size(); ++ca) {
          const int ia[3] = {pa[ca].x, pa[ca].y, pa[ca].z};
          for (std::size_t cb = 0; cb < pb.size(); ++cb) {
            const int jb[3] = {pb[cb].x, pb[cb].y, pb[cb].z};
            const double cc =
                a.norm_coef(i, ca) * b.norm_coef(j, cb) * pref * -atom.z;
            for (std::size_t d = 0; d < 3; ++d) {
              // Bra-center derivative (atom carrying shell a).
              {
                int up[3] = {ia[0], ia[1], ia[2]};
                int dn[3] = {ia[0], ia[1], ia[2]};
                ++up[d];
                --dn[d];
                double val = 2.0 * ea * velem(up, jb, -1);
                if (ia[d] > 0) val -= ia[d] * velem(dn, jb, -1);
                grads[a.atom_index()][d](ca, cb) += cc * val;
              }
              // Ket-center derivative (atom carrying shell b).
              {
                int up[3] = {jb[0], jb[1], jb[2]};
                int dn[3] = {jb[0], jb[1], jb[2]};
                ++up[d];
                --dn[d];
                double val = 2.0 * eb * velem(ia, up, -1);
                if (jb[d] > 0) val -= jb[d] * velem(ia, dn, -1);
                grads[b.atom_index()][d](ca, cb) += cc * val;
              }
              // Operator-center derivative: d/dC_d R = -R(t+1), so the
              // element derivative flips the ladder sign.
              grads[c][d](ca, cb) +=
                  cc * -velem(ia, jb, static_cast<int>(d));
            }
          }
        }
      }
    }
  }
  return grads;
}

ShellPairDeriv::ShellPairDeriv(const Shell& a, const Shell& b)
    : lab_(a.l() + b.l()) {
  const auto pa = cartesian_powers(a.l());
  const auto pb = cartesian_powers(b.l());
  ncomp_ = pa.size() * pb.size();

  // Entries first carry their offset in a box of Hermite orders up to
  // lab + 1 per direction; the offsets are remapped to the compact point
  // lists once every primitive pair has marked the points it touches.
  const std::size_t n1 = static_cast<std::size_t>(lab_ + 2);
  const std::size_t box = n1 * n1 * n1;
  std::vector<char> used_plain(box, 0), used_deriv(box, 0);

  const Vec3& ca = a.center();
  const Vec3& cb = b.center();
  const double ab[3] = {ca.x - cb.x, ca.y - cb.y, ca.z - cb.z};
  E1dDeriv e[3];
  prims_.resize(a.num_primitives() * b.num_primitives());
  std::size_t pp = 0;
  for (std::size_t i = 0; i < a.num_primitives(); ++i) {
    for (std::size_t j = 0; j < b.num_primitives(); ++j, ++pp) {
      const double ea = a.exponents()[i];
      const double eb = b.exponents()[j];
      Prim& prim = prims_[pp];
      prim.p = ea + eb;
      prim.center = (1.0 / prim.p) * (ea * ca + eb * cb);
      for (int d = 0; d < 3; ++d)
        e[d].build(a.l() + 1, b.l() + 1, ea, eb, ab[d]);

      prim.begin.reserve(kSegments * ncomp_ + 1);
      for (std::size_t seg = 0; seg < kSegments; ++seg) {
        std::vector<char>& used = seg == 0 ? used_plain : used_deriv;
        for (std::size_t ia = 0; ia < pa.size(); ++ia) {
          for (std::size_t ib = 0; ib < pb.size(); ++ib) {
            prim.begin.push_back(
                static_cast<std::uint32_t>(prim.entries.size()));
            const int ip[3] = {pa[ia].x, pa[ia].y, pa[ia].z};
            const int jp[3] = {pb[ib].x, pb[ib].y, pb[ib].z};
            // 1-D factors: E(t; i, j), or in the differentiated direction
            // the shift relation, one order longer.
            double f[3][E1dDeriv::kT] = {};
            int nt[3] = {};
            for (int d = 0; d < 3; ++d) {
              const auto& v = e[d].v;
              const int ii = ip[d], jj = jp[d];
              const bool on_a = seg == static_cast<std::size_t>(1 + d);
              const bool on_b = seg == static_cast<std::size_t>(4 + d);
              nt[d] = ii + jj + (on_a || on_b ? 2 : 1);
              for (int t = 0; t < nt[d]; ++t) {
                if (on_a)
                  f[d][t] = 2.0 * ea * v[ii + 1][jj][t] -
                            (ii > 0 ? ii * v[ii - 1][jj][t] : 0.0);
                else if (on_b)
                  f[d][t] = 2.0 * eb * v[ii][jj + 1][t] -
                            (jj > 0 ? jj * v[ii][jj - 1][t] : 0.0);
                else
                  f[d][t] = v[ii][jj][t];
              }
            }
            const double cc = a.norm_coef(i, ia) * b.norm_coef(j, ib);
            for (int t = 0; t < nt[0]; ++t) {
              if (f[0][t] == 0.0) continue;
              for (int u = 0; u < nt[1]; ++u) {
                if (f[1][u] == 0.0) continue;
                for (int w = 0; w < nt[2]; ++w) {
                  const double ev = cc * f[0][t] * f[1][u] * f[2][w];
                  if (ev == 0.0) continue;
                  const std::size_t off =
                      (static_cast<std::size_t>(t) * n1 +
                       static_cast<std::size_t>(u)) *
                          n1 +
                      static_cast<std::size_t>(w);
                  Entry entry;
                  entry.val = ev;
                  entry.sval = ((t + u + w) & 1) ? -ev : ev;
                  entry.t = static_cast<std::uint8_t>(t);
                  entry.u = static_cast<std::uint8_t>(u);
                  entry.v = static_cast<std::uint8_t>(w);
                  entry.upos = static_cast<std::uint16_t>(off);
                  prim.entries.push_back(entry);
                  used[off] = 1;
                  prim.max_abs = std::max(prim.max_abs, std::abs(ev));
                }
              }
            }
          }
        }
      }
      prim.begin.push_back(static_cast<std::uint32_t>(prim.entries.size()));
    }
  }

  // Compact point lists in box-offset order, and the entries' upos
  // rewritten from box offsets to positions in them.
  std::vector<std::uint16_t> plain_pos(box, 0), deriv_pos(box, 0);
  const auto compact = [n1, box](const std::vector<char>& used,
                                 std::vector<HermiteCoord>& points,
                                 std::vector<std::uint16_t>& pos) {
    for (std::size_t off = 0; off < box; ++off) {
      if (!used[off]) continue;
      pos[off] = static_cast<std::uint16_t>(points.size());
      points.push_back({static_cast<std::uint8_t>(off / (n1 * n1)),
                        static_cast<std::uint8_t>(off / n1 % n1),
                        static_cast<std::uint8_t>(off % n1)});
    }
  };
  compact(used_plain, points_, plain_pos);
  compact(used_deriv, dpoints_, deriv_pos);
  for (Prim& prim : prims_) {
    const std::size_t plain_end = prim.begin[ncomp_];
    for (std::size_t k = 0; k < prim.entries.size(); ++k) {
      std::uint16_t& upos = prim.entries[k].upos;
      upos = k < plain_end ? plain_pos[upos] : deriv_pos[upos];
    }
  }
}

void eri_gradient_quartet(const ShellPairDeriv& bra, const ShellPairDeriv& ket,
                          EriGradBlocks& out) {
  using Prim = ShellPairDeriv::Prim;
  const std::size_t nbc = bra.ncomp_;
  const std::size_t nkc = ket.ncomp_;
  for (auto& center : out.g)
    for (auto& dir : center) dir.assign(nbc * nkc, 0.0);

  const int order = bra.lab_ + ket.lab_ + 1;
  const std::size_t rn1 = static_cast<std::size_t>(order + 1);
  const std::size_t nd = bra.dpoints_.size();
  const std::size_t np = bra.points_.size();
  GradScratch& s = grad_scratch();
  // R offset of every bra point: R(point + ket entry) sits at
  // rbase[point] + the entry's own offset, since rn1 is fixed per quartet.
  const auto offsets = [rn1](const std::vector<HermiteCoord>& points,
                             std::vector<std::uint32_t>& rbase) {
    rbase.resize(points.size());
    for (std::size_t k = 0; k < points.size(); ++k)
      rbase[k] = static_cast<std::uint32_t>(
          (points[k].t * rn1 + points[k].u) * rn1 + points[k].v);
  };
  offsets(bra.dpoints_, s.rbase_d);
  offsets(bra.points_, s.rbase_p);
  s.panel.resize(nkc * nd);
  s.cpanel.resize(3 * nkc * np);

  // One row per ket component: the component's list in segment `seg`,
  // sign-folded for the ket side, contracted with R over `npts` bra
  // points.
  const auto ket_rows = [nkc, rn1](const Prim& kp, std::size_t seg,
                                   const double* r, const std::uint32_t* rbase,
                                   std::size_t npts, double* rows) {
    for (std::size_t kc = 0; kc < nkc; ++kc) {
      double* row = rows + kc * npts;
      std::fill(row, row + npts, 0.0);
      const ShellPairDeriv::Entry* e = kp.entries.data() + kp.begin[seg * nkc + kc];
      const ShellPairDeriv::Entry* end =
          kp.entries.data() + kp.begin[seg * nkc + kc + 1];
      for (; e != end; ++e) {
        const double sv = e->sval;
        const double* rk = r + (e->t * rn1 + e->u) * rn1 + e->v;
        for (std::size_t pnt = 0; pnt < npts; ++pnt)
          row[pnt] += sv * rk[rbase[pnt]];
      }
    }
  };
  // A bra list read against one panel row.
  const auto dot = [](const Prim& bp, std::size_t list, const double* row) {
    double sum = 0.0;
    const ShellPairDeriv::Entry* e = bp.entries.data() + bp.begin[list];
    const ShellPairDeriv::Entry* end = bp.entries.data() + bp.begin[list + 1];
    for (; e != end; ++e) sum += e->val * row[e->upos];
    return sum;
  };

  const double pi52 = 2.0 * std::pow(std::numbers::pi, 2.5);
  for (const Prim& bp : bra.prims_) {
    for (const Prim& kp : ket.prims_) {
      const double p = bp.p, q = kp.p;
      const double pref = pi52 / (p * q * std::sqrt(p + q));
      if (pref * bp.max_abs * kp.max_abs < kEriPrimitiveCutoff) continue;
      const double alpha = p * q / (p + q);
      const Vec3 pq = bp.center - kp.center;
      const double* r = s.r.build(order, alpha, pq.x, pq.y, pq.z);

      // Ket plain rows over the bra derivative points (for dA, dB) and
      // ket center-C rows over the bra plain points (for dC).
      ket_rows(kp, 0, r, s.rbase_d.data(), nd, s.panel.data());
      for (std::size_t dir = 0; dir < 3; ++dir)
        ket_rows(kp, 1 + dir, r, s.rbase_p.data(), np,
                 s.cpanel.data() + dir * nkc * np);

      for (std::size_t bc = 0; bc < nbc; ++bc)
        for (std::size_t kc = 0; kc < nkc; ++kc) {
          const double* row = s.panel.data() + kc * nd;
          const std::size_t idx = bc * nkc + kc;
          for (std::size_t dir = 0; dir < 3; ++dir) {
            out.g[0][dir][idx] += pref * dot(bp, (1 + dir) * nbc + bc, row);
            out.g[1][dir][idx] += pref * dot(bp, (4 + dir) * nbc + bc, row);
            out.g[2][dir][idx] +=
                pref * dot(bp, bc, s.cpanel.data() + (dir * nkc + kc) * np);
          }
        }
    }
  }
}

EriGradBlocks eri_gradient_quartet(const Shell& a, const Shell& b,
                                   const Shell& c, const Shell& d) {
  EriGradBlocks out;
  eri_gradient_quartet(ShellPairDeriv(a, b), ShellPairDeriv(c, d), out);
  return out;
}

}  // namespace mthfx::ints
