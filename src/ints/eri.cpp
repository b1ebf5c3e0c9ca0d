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
// Entry retention must be decided by these rules, not by comparing
// the computed value with zero: the recurrence's cancellation noise
// makes a value test geometry-dependent, which splits structurally
// identical pairs into distinct batching classes (observed as the
// batched kernel degrading to width-1 batches whenever a basis puts
// the same exponent on both shells of a pair).
bool parity_zero_1d(double ab, double ea, double eb, int i, int j, int t) {
  if (ab == 0.0) return ((i + j - t) & 1) != 0;
  if (ea == eb && i == j) return (t & 1) != 0;
  return false;
}

}  // namespace

ShellPairHermite::ShellPairHermite(const Shell& a, const Shell& b)
    : lab_(a.l() + b.l()),
      powers_a_(cartesian_powers(a.l())),
      powers_b_(cartesian_powers(b.l())) {
  na_ = powers_a_.size();
  nb_ = powers_b_.size();
  ncomp_ = na_ * nb_;
  const std::size_t n1 = static_cast<std::size_t>(lab_ + 1);
  const std::size_t box = n1 * n1 * n1;

  prims_.resize(a.num_primitives() * b.num_primitives());
  E1d ex, ey, ez;
  const Vec3& ca = a.center();
  const Vec3& cb = b.center();

  // Pass 1: expand every primitive pair into a dense per-component box
  // (the structurally simple form), recording which (t,u,v) slots are
  // nonzero for *any* component of *any* primitive — that union is the
  // pattern the quartet kernel's ket->bra panel is indexed by.
  std::vector<std::vector<double>> boxes(prims_.size());
  std::vector<std::vector<char>> nz(prims_.size());
  std::vector<char> mask(box, 0);
  std::size_t pp = 0;
  for (std::size_t i = 0; i < a.num_primitives(); ++i) {
    for (std::size_t j = 0; j < b.num_primitives(); ++j, ++pp) {
      const double ea = a.exponents()[i];
      const double eb = b.exponents()[j];
      Prim& prim = prims_[pp];
      prim.p = ea + eb;
      prim.center = (1.0 / prim.p) * (ea * ca + eb * cb);
      ex.build(a.l(), b.l(), ea, eb, ca.x - cb.x);
      ey.build(a.l(), b.l(), ea, eb, ca.y - cb.y);
      ez.build(a.l(), b.l(), ea, eb, ca.z - cb.z);

      std::vector<double>& e = boxes[pp];
      e.assign(ncomp_ * box, 0.0);
      std::vector<char>& keep = nz[pp];
      keep.assign(ncomp_ * box, 0);
      std::size_t comp = 0;
      for (std::size_t ia = 0; ia < na_; ++ia) {
        for (std::size_t ib = 0; ib < nb_; ++ib, ++comp) {
          const double cc = a.norm_coef(i, ia) * b.norm_coef(j, ib);
          double* dst = e.data() + comp * box;
          char* nzc = keep.data() + comp * box;
          for (int t = 0; t <= powers_a_[ia].x + powers_b_[ib].x; ++t) {
            if (parity_zero_1d(ca.x - cb.x, ea, eb, powers_a_[ia].x,
                               powers_b_[ib].x, t))
              continue;
            const double vx = cc * ex.v[powers_a_[ia].x][powers_b_[ib].x][t];
            for (int u = 0; u <= powers_a_[ia].y + powers_b_[ib].y; ++u) {
              if (parity_zero_1d(ca.y - cb.y, ea, eb, powers_a_[ia].y,
                                 powers_b_[ib].y, u))
                continue;
              const double vxy =
                  vx * ey.v[powers_a_[ia].y][powers_b_[ib].y][u];
              for (int w = 0; w <= powers_a_[ia].z + powers_b_[ib].z; ++w) {
                if (parity_zero_1d(ca.z - cb.z, ea, eb, powers_a_[ia].z,
                                   powers_b_[ib].z, w))
                  continue;
                const std::size_t off = (static_cast<std::size_t>(t) * n1 +
                                         static_cast<std::size_t>(u)) *
                                            n1 +
                                        static_cast<std::size_t>(w);
                const double ev = vxy * ez.v[powers_a_[ia].z][powers_b_[ib].z][w];
                dst[off] = ev;
                nzc[off] = 1;
                mask[off] = 1;
              }
            }
          }
        }
      }
      for (double ev : e)
        prim.max_abs_e = std::max(prim.max_abs_e, std::abs(ev));
    }
  }

  // The union pattern, in box-offset order. For a same-center pair the
  // Hermite parity rule E(t;i,j) = 0 for odd i+j-t empties half the box;
  // for distinct centers it is the angular bounds that shrink it.
  std::vector<std::uint16_t> upos_of(box, 0xffff);
  for (std::size_t t = 0; t < n1; ++t)
    for (std::size_t u = 0; u < n1; ++u)
      for (std::size_t v = 0; v < n1; ++v) {
        const std::size_t off = (t * n1 + u) * n1 + v;
        if (!mask[off]) continue;
        upos_of[off] = static_cast<std::uint16_t>(union_coords_.size());
        union_coords_.push_back({static_cast<std::uint8_t>(t),
                                 static_cast<std::uint8_t>(u),
                                 static_cast<std::uint8_t>(v)});
      }

  // Pass 2: compact each component's structurally nonzero slots into the
  // entry lists the quartet kernel iterates, with the ket-side parity
  // sign prefolded. Retention follows the parity flags, never the value:
  // an accidental numerical zero stays (it contributes nothing) so that
  // every pair with the same skeleton compacts to the same entry
  // pattern regardless of geometry.
  for (std::size_t pi = 0; pi < prims_.size(); ++pi) {
    Prim& prim = prims_[pi];
    const std::vector<double>& e = boxes[pi];
    const std::vector<char>& keep = nz[pi];
    prim.comp_begin.assign(ncomp_ + 1, 0);
    for (std::size_t comp = 0; comp < ncomp_; ++comp) {
      prim.comp_begin[comp] = static_cast<std::uint32_t>(prim.entries.size());
      const double* src = e.data() + comp * box;
      const char* nzc = keep.data() + comp * box;
      for (std::size_t t = 0; t < n1; ++t)
        for (std::size_t u = 0; u < n1; ++u)
          for (std::size_t v = 0; v < n1; ++v) {
            const std::size_t off = (t * n1 + u) * n1 + v;
            if (!nzc[off]) continue;
            const double ev = src[off];
            HermiteEntry entry;
            entry.val = ev;
            entry.sval = ((t + u + v) & 1) ? -ev : ev;
            entry.t = static_cast<std::uint8_t>(t);
            entry.u = static_cast<std::uint8_t>(u);
            entry.v = static_cast<std::uint8_t>(v);
            entry.upos = upos_of[off];
            prim.entries.push_back(entry);
          }
    }
    prim.comp_begin[ncomp_] = static_cast<std::uint32_t>(prim.entries.size());
  }

  // Structural class key for the batched kernel: FNV-1a over everything
  // that shapes the kernel's control flow and indexing — angular class,
  // union pattern, per-primitive/component entry coordinates — with the
  // coefficient *values* deliberately excluded (they become SIMD lane
  // data). Equal skeleton => identical instruction stream.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  mix(static_cast<std::uint64_t>(lab_));
  mix(na_);
  mix(nb_);
  mix(prims_.size());
  mix(union_coords_.size());
  for (const HermiteCoord& c : union_coords_)
    mix((static_cast<std::uint64_t>(c.t) << 16) |
        (static_cast<std::uint64_t>(c.u) << 8) | c.v);
  for (const Prim& prim : prims_) {
    mix(prim.entries.size());
    for (const std::uint32_t cb : prim.comp_begin) mix(cb);
    for (const HermiteEntry& e : prim.entries)
      mix((static_cast<std::uint64_t>(e.t) << 40) |
          (static_cast<std::uint64_t>(e.u) << 32) |
          (static_cast<std::uint64_t>(e.v) << 24) | e.upos);
  }
  structure_key_ = h;
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
