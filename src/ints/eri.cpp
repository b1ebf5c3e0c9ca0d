#include "ints/eri.hpp"

#include <algorithm>
#include <cmath>

#include "ints/eri_batch.hpp"
#include "ints/hermite_fixed.hpp"

namespace mthfx::ints {

using chem::cartesian_powers;
using chem::Shell;
using chem::Vec3;

namespace {

// Compile-time capacity: supports shells up to l = kEriMaxL (f) on each
// center.
using E1d = detail::E1d<kEriMaxL, kEriMaxL>;

// True when E(t; i, j) vanishes identically in one dimension, by
// parity rather than by accident of the geometry. A same-coordinate
// pair (ab == 0) expands the pure monomial (x-P)^{i+j}, so only
// i+j-t even survives; equal exponents with i == j expand
// ((x-P)^2 - (ab/2)^2)^i, even in x-P, so only even t survives.
// Such slots are stored as exact zeros, never taken from the
// recurrence, whose cancellation noise would leave geometry-dependent
// residue there.
bool parity_zero_1d(double ab, double ea, double eb, int i, int j, int t) {
  if (ab == 0.0) return ((i + j - t) & 1) != 0;
  if (ea == eb && i == j) return (t & 1) != 0;
  return false;
}

PairSkeleton make_skeleton(int la, int lb) {
  PairSkeleton sk;
  sk.lab = la + lb;
  const std::vector<chem::CartPowers> pa = cartesian_powers(la);
  const std::vector<chem::CartPowers> pb = cartesian_powers(lb);
  sk.na = pa.size();
  sk.nb = pb.size();
  const std::size_t n1 = static_cast<std::size_t>(sk.lab + 1);
  const auto off = [n1](std::size_t t, std::size_t u, std::size_t v) {
    return (t * n1 + u) * n1 + v;
  };

  // Every component's slots, t <= ax+bx etc., in box-offset order; the
  // union of them is the pattern the ket->bra panel is indexed by.
  std::vector<char> mask(n1 * n1 * n1, 0);
  for (const chem::CartPowers& a : pa)
    for (const chem::CartPowers& b : pb) {
      sk.comp_begin.push_back(static_cast<std::uint32_t>(sk.entries.size()));
      for (int t = 0; t <= a.x + b.x; ++t)
        for (int u = 0; u <= a.y + b.y; ++u)
          for (int v = 0; v <= a.z + b.z; ++v) {
            HermiteEntry e;
            e.t = static_cast<std::uint8_t>(t);
            e.u = static_cast<std::uint8_t>(u);
            e.v = static_cast<std::uint8_t>(v);
            e.odd = static_cast<std::uint8_t>((t + u + v) & 1);
            sk.entries.push_back(e);
            mask[off(t, u, v)] = 1;
          }
    }
  sk.comp_begin.push_back(static_cast<std::uint32_t>(sk.entries.size()));

  std::vector<std::uint16_t> upos_of(mask.size(), 0);
  for (std::size_t t = 0; t < n1; ++t)
    for (std::size_t u = 0; u < n1; ++u)
      for (std::size_t v = 0; v < n1; ++v) {
        if (!mask[off(t, u, v)]) continue;
        upos_of[off(t, u, v)] =
            static_cast<std::uint16_t>(sk.union_coords.size());
        sk.union_coords.push_back({static_cast<std::uint8_t>(t),
                                   static_cast<std::uint8_t>(u),
                                   static_cast<std::uint8_t>(v)});
      }
  for (HermiteEntry& e : sk.entries) e.upos = upos_of[off(e.t, e.u, e.v)];
  return sk;
}

// The skeleton of class (la, lb), la, lb <= kEriMaxL.
const PairSkeleton& pair_skeleton(int la, int lb) {
  constexpr int n = kEriMaxL + 1;
  static const std::vector<PairSkeleton> table = [] {
    std::vector<PairSkeleton> all;
    for (int a = 0; a < n; ++a)
      for (int b = 0; b < n; ++b) all.push_back(make_skeleton(a, b));
    return all;
  }();
  return table[static_cast<std::size_t>(la * n + lb)];
}

}  // namespace

ShellPairHermite::ShellPairHermite(const Shell& a, const Shell& b)
    : skel_(&pair_skeleton(a.l(), b.l())) {
  const PairSkeleton& sk = *skel_;
  const std::vector<chem::CartPowers> pa = cartesian_powers(a.l());
  const std::vector<chem::CartPowers> pb = cartesian_powers(b.l());
  const std::size_t ne = sk.entries.size();
  prims_.resize(a.num_primitives() * b.num_primitives());
  vals_.resize(prims_.size() * ne);
  live_.assign((ne + 63) / 64, 0);
  class_id_ = static_cast<std::uint32_t>(
      (prims_.size() * (kEriMaxL + 1) + static_cast<std::size_t>(a.l())) *
          (kEriMaxL + 1) +
      static_cast<std::size_t>(b.l()));

  E1d ex, ey, ez;
  const Vec3& ca = a.center();
  const Vec3& cb = b.center();
  const Vec3 ab{ca.x - cb.x, ca.y - cb.y, ca.z - cb.z};
  std::size_t pp = 0;
  for (std::size_t i = 0; i < a.num_primitives(); ++i) {
    for (std::size_t j = 0; j < b.num_primitives(); ++j, ++pp) {
      const double ea = a.exponents()[i];
      const double eb = b.exponents()[j];
      Prim& prim = prims_[pp];
      prim.p = ea + eb;
      prim.center = (1.0 / prim.p) * (ea * ca + eb * cb);
      ex.build(a.l(), b.l(), ea, eb, ab.x);
      ey.build(a.l(), b.l(), ea, eb, ab.y);
      ez.build(a.l(), b.l(), ea, eb, ab.z);

      double* val = vals_.data() + pp * ne;
      std::size_t comp = 0;
      for (std::size_t ia = 0; ia < sk.na; ++ia) {
        for (std::size_t ib = 0; ib < sk.nb; ++ib, ++comp) {
          const chem::CartPowers& ma = pa[ia];
          const chem::CartPowers& mb = pb[ib];
          const double cc = a.norm_coef(i, ia) * b.norm_coef(j, ib);
          for (std::uint32_t e = sk.comp_begin[comp];
               e < sk.comp_begin[comp + 1]; ++e) {
            const HermiteEntry& h = sk.entries[e];
            if (parity_zero_1d(ab.x, ea, eb, ma.x, mb.x, h.t) ||
                parity_zero_1d(ab.y, ea, eb, ma.y, mb.y, h.u) ||
                parity_zero_1d(ab.z, ea, eb, ma.z, mb.z, h.v)) {
              val[e] = 0.0;
              continue;
            }
            const double vx = cc * ex.v[ma.x][mb.x][h.t];
            const double vxy = vx * ey.v[ma.y][mb.y][h.u];
            val[e] = vxy * ez.v[ma.z][mb.z][h.v];
            prim.max_abs_e = std::max(prim.max_abs_e, std::abs(val[e]));
            if (val[e] != 0.0) live_[e / 64] |= std::uint64_t{1} << (e % 64);
          }
        }
      }
    }
  }
}

EriBlock eri_shell_quartet(const Shell& a, const Shell& b, const Shell& c,
                           const Shell& d) {
  const ShellPairHermite bra(a, b);
  const ShellPairHermite ket(c, d);
  const QuartetRef quartet{&bra, &ket};
  EriBlock out;
  eri_shell_quartet_batched({&quartet, 1}, &out);
  return out;
}

std::vector<double> eri_tensor(const chem::BasisSet& basis) {
  const std::size_t n = basis.num_functions();
  const std::size_t ns = basis.num_shells();
  std::vector<double> tensor(n * n * n * n, 0.0);

  // Pair expansions for the sa >= sb triangle only: the Gaussian product
  // does not care about factor order, so pair (hi, lo) serves both bra
  // orders with component indices swapped. Halves the oracle's dominant
  // memory term (ns^2 -> ns(ns+1)/2 pair objects).
  std::vector<ShellPairHermite> pairs;
  pairs.reserve(ns * (ns + 1) / 2);
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb <= sa; ++sb)
      pairs.emplace_back(basis.shell(sa), basis.shell(sb));
  const auto tri = [](std::size_t hi, std::size_t lo) {
    return hi * (hi + 1) / 2 + lo;
  };

  // One batched stream per bra: every ordered ket (sc, sd).
  std::vector<QuartetRef> stream(ns * ns);
  std::vector<EriBlock> blocks(ns * ns);
  for (std::size_t sa = 0; sa < ns; ++sa)
    for (std::size_t sb = 0; sb < ns; ++sb) {
      const bool swap_ab = sa < sb;
      const ShellPairHermite& bra =
          pairs[swap_ab ? tri(sb, sa) : tri(sa, sb)];
      for (std::size_t sc = 0; sc < ns; ++sc)
        for (std::size_t sd = 0; sd < ns; ++sd)
          stream[sc * ns + sd] = {&bra,
                                  &pairs[sc < sd ? tri(sd, sc) : tri(sc, sd)]};
      eri_shell_quartet_batched(stream, blocks.data());
      for (std::size_t sc = 0; sc < ns; ++sc)
        for (std::size_t sd = 0; sd < ns; ++sd) {
          const bool swap_cd = sc < sd;
          const EriBlock& block = blocks[sc * ns + sd];
          const std::size_t oa = basis.first_function(sa);
          const std::size_t ob = basis.first_function(sb);
          const std::size_t oc = basis.first_function(sc);
          const std::size_t od = basis.first_function(sd);
          // Block axes follow the stored (hi, lo) pair order; map each
          // component back to the requested (sa, sb, sc, sd) order.
          for (std::size_t i = 0; i < block.na; ++i)
            for (std::size_t j = 0; j < block.nb; ++j)
              for (std::size_t k = 0; k < block.nc; ++k)
                for (std::size_t l = 0; l < block.nd; ++l) {
                  const std::size_t mu = oa + (swap_ab ? j : i);
                  const std::size_t nv = ob + (swap_ab ? i : j);
                  const std::size_t lam = oc + (swap_cd ? l : k);
                  const std::size_t sig = od + (swap_cd ? k : l);
                  tensor[((mu * n + nv) * n + lam) * n + sig] =
                      block(i, j, k, l);
                }
        }
    }
  return tensor;
}

}  // namespace mthfx::ints
