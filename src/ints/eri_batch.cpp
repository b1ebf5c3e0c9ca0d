#include "ints/eri_batch.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "ints/boys.hpp"
#include "ints/simd.hpp"

namespace mthfx::ints {

namespace {

constexpr std::size_t kW = kBoysBatchWidth;

// One stream entry's sort record: the (bra, ket) structure keys, then
// the stream index, so an unstable sort orders exactly like a stable
// sort by key.
struct SortKey {
  std::uint64_t bra, ket;
  std::uint32_t index;
  bool operator<(const SortKey& o) const {
    if (bra != o.bra) return bra < o.bra;
    if (ket != o.ket) return ket < o.ket;
    return index < o.index;
  }
};

// Per-thread scratch, grow-only so the hot path never allocates warm.
struct BatchScratch {
  std::vector<SortKey> order;      // the stream, sorted by structure
  // Packed per-primitive lane data, SoA: value index e, lane w at
  // [e * kW + w]. Entry *values* are lane data; entry coordinates are
  // shared batch structure read from lane 0's pair.
  std::vector<double> bra_vals;    // [bra prim entries][lane] (val)
  std::vector<double> ket_svals;   // [ket prim entries][lane] (sval)
  std::vector<std::size_t> ent_off_b, ent_off_k;  // per-prim entry offsets
  // [prim * kW + w]: exponent sum, center, max |E|, and the
  // prefactor's per-primitive part (2π^{5/2}/p on the bra, 1/q on the ket).
  std::vector<double> bp_p, bp_x, bp_y, bp_z, bp_me, bp_c;
  std::vector<double> kp_p, kp_x, kp_y, kp_z, kp_me, kp_c;
  std::vector<std::uint32_t> rbase;  // union point -> flat R offset
  std::vector<double> r_a, r_b;      // ping-pong R slices, [offset][lane]
  std::vector<double> panel;  // ket-folded [ket comp][union point][lane]
  std::vector<double> acc;    // output blocks, [bra comp][ket comp][lane]
};

thread_local BatchScratch tls;

// The Hermite Coulomb recurrence for one tuv_max, as flat step lists:
// slice n of R is R^{(n)}_{tuv} = d · R^{(n+1)}_{a} [+ c · R^{(n+1)}_{b}],
// d the x/y/z component of P−Q of the first nonzero of t, u, v, and
// c = t−1 (u−1, v−1) when that order is > 1. Steps of one slice read
// only the slice above, so their order is free: they are grouped by
// term count and sorted by t+u+v, and slice n runs the prefix of
// each list with t+u+v <= tuv_max − n. Offsets are flat (t,u,v) R
// indices (stride tuv_max + 1) times kW.
struct RPlan {
  struct Step {
    std::uint32_t dst, a, b;
    std::uint32_t axis;  // 0, 1, 2: x, y, z
    double c;
  };
  std::vector<Step> one, two;  // one-term and two-term steps
  // end_one[k], end_two[k]: steps with t+u+v <= k.
  std::size_t end_one[kEriMaxTuv + 1] = {}, end_two[kEriMaxTuv + 1] = {};
};

const RPlan& r_plan(int tuv_max) {
  static const std::vector<RPlan> plans = [] {
    std::vector<RPlan> all(kEriMaxTuv + 1);
    for (int l = 0; l <= kEriMaxTuv; ++l) {
      RPlan& plan = all[static_cast<std::size_t>(l)];
      const std::size_t n1 = static_cast<std::size_t>(l) + 1;
      const auto at = [n1](int t, int u, int v) {
        return static_cast<std::uint32_t>(
            ((static_cast<std::size_t>(t) * n1 + static_cast<std::size_t>(u)) *
                 n1 +
             static_cast<std::size_t>(v)) *
            kW);
      };
      for (int total = 1; total <= l; ++total) {
        for (int t = total; t >= 0; --t)
          for (int u = total - t; u >= 0; --u) {
            const int v = total - t - u;
            RPlan::Step st{};
            st.dst = at(t, u, v);
            int order = 0;
            if (t > 0) {
              st.axis = 0;
              st.a = at(t - 1, u, v);
              if (t > 1) st.b = at(t - 2, u, v);
              order = t;
            } else if (u > 0) {
              st.axis = 1;
              st.a = at(t, u - 1, v);
              if (u > 1) st.b = at(t, u - 2, v);
              order = u;
            } else {
              st.axis = 2;
              st.a = at(t, u, v - 1);
              if (v > 1) st.b = at(t, u, v - 2);
              order = v;
            }
            st.c = static_cast<double>(order - 1);
            (order > 1 ? plan.two : plan.one).push_back(st);
          }
        plan.end_one[total] = plan.one.size();
        plan.end_two[total] = plan.two.size();
      }
    }
    return all;
  }();
  return plans[static_cast<std::size_t>(tuv_max)];
}

// Lane-parallel Hermite Coulomb tensor: the scalar RTensor recurrence
// with every slot widened to kW lanes. Returns the n = 0 slice,
// [flat (t,u,v) offset * kW + lane] with stride tuv_max + 1.
const double* build_r(int tuv_max, V8 alpha, V8 dx, V8 dy, V8 dz,
                      const double* f) {
  const RPlan& plan = r_plan(tuv_max);
  const V8 d[3] = {dx, dy, dz};
  double* hi = tls.r_a.data();
  double* lo = tls.r_b.data();
  V8 powers[kEriMaxTuv + 1];  // (-2 alpha)^n
  powers[0] = v8_broadcast(1.0);
  const V8 step = v8_broadcast(-2.0) * alpha;
  for (int n = 1; n <= tuv_max; ++n) powers[n] = powers[n - 1] * step;
  for (int n = tuv_max; n >= 0; --n) {
    v8_store(lo, powers[n] * v8_load(f + static_cast<std::size_t>(n) * kW));
    const std::size_t k = static_cast<std::size_t>(tuv_max - n);
    for (std::size_t i = 0; i < plan.end_one[k]; ++i) {
      const RPlan::Step& st = plan.one[i];
      v8_store(lo + st.dst, d[st.axis] * v8_load(hi + st.a));
    }
    for (std::size_t i = 0; i < plan.end_two[k]; ++i) {
      const RPlan::Step& st = plan.two[i];
      v8_store(lo + st.dst, v8_broadcast(st.c) * v8_load(hi + st.b) +
                                d[st.axis] * v8_load(hi + st.a));
    }
    std::swap(hi, lo);
  }
  return hi;
}

}  // namespace

// Friend of ShellPairHermite: implements batch formation, packing and
// the lane-parallel kernel stages.
class BatchedEri {
 public:
  static void run(std::span<const QuartetRef> stream, EriBlock* out) {
    const std::size_t n = stream.size();
    if (n == 0) return;

    // Sort by the pairs' precomputed structure keys; the stream index
    // breaks ties, so batch composition is a pure function of the
    // stream. A batch takes consecutive entries while both pairs match
    // lane 0's structure (same pointer, or a full same_structure walk:
    // the hash only orders). A hash collision can only end a batch
    // early, never merge two skeletons.
    std::vector<SortKey>& order = tls.order;
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      order[i] = {stream[i].bra->structure_key(),
                  stream[i].ket->structure_key(),
                  static_cast<std::uint32_t>(i)};
    std::sort(order.begin(), order.end());

    std::uint32_t idx[kW];
    std::size_t i = 0;
    while (i < n) {
      const SortKey& k0 = order[i];
      const QuartetRef& q0 = stream[k0.index];
      std::size_t nw = 0;
      idx[nw++] = k0.index;
      for (++i; i < n && nw < kW; ++i) {
        const SortKey& k = order[i];
        const QuartetRef& q = stream[k.index];
        if (k.bra != k0.bra || k.ket != k0.ket || !matches(q.bra, q0.bra) ||
            !matches(q.ket, q0.ket))
          break;
        idx[nw++] = k.index;
      }
      eval_batch(stream, idx, nw, out);
    }
  }

 private:
  static bool matches(const ShellPairHermite* p,
                      const ShellPairHermite* lane0) {
    return p == lane0 || same_structure(*p, *lane0);
  }

  // Full structural equality — the hash key only orders. Everything
  // that shapes control flow and indexing must match; coefficient values
  // (val/sval, exponents, centers) are lane data and deliberately don't.
  static bool same_structure(const ShellPairHermite& x,
                             const ShellPairHermite& y) {
    if (x.lab_ != y.lab_ || x.na_ != y.na_ || x.nb_ != y.nb_ ||
        x.prims_.size() != y.prims_.size() ||
        x.union_coords_.size() != y.union_coords_.size())
      return false;
    for (std::size_t u = 0; u < x.union_coords_.size(); ++u) {
      const HermiteCoord a = x.union_coords_[u];
      const HermiteCoord b = y.union_coords_[u];
      if (a.t != b.t || a.u != b.u || a.v != b.v) return false;
    }
    for (std::size_t p = 0; p < x.prims_.size(); ++p) {
      const auto& xp = x.prims_[p];
      const auto& yp = y.prims_[p];
      if (xp.entries.size() != yp.entries.size() ||
          xp.comp_begin != yp.comp_begin)
        return false;
      for (std::size_t e = 0; e < xp.entries.size(); ++e) {
        const HermiteEntry& a = xp.entries[e];
        const HermiteEntry& b = yp.entries[e];
        if (a.t != b.t || a.u != b.u || a.v != b.v || a.upos != b.upos)
          return false;
      }
    }
    return true;
  }

  // Every lane's block is a pure function of its own (bra, ket): lanes
  // share only control flow. A lane whose primitive combination falls
  // below the cutoff (or a padded tail lane) runs with pref = 0 and adds
  // exact zeros to accumulators that start at +0.0, which leaves every
  // value as the skip the lane would take alone.
  static void eval_batch(std::span<const QuartetRef> stream,
                         const std::uint32_t* idx, std::size_t nw,
                         EriBlock* out) {
    // Lane tables; ragged tails replicate lane 0 (prefactor forced to 0
    // below, final writes guarded by w < nw).
    const ShellPairHermite* B[kW];
    const ShellPairHermite* K[kW];
    for (std::size_t w = 0; w < kW; ++w) {
      const QuartetRef& q = stream[idx[w < nw ? w : 0]];
      B[w] = q.bra;
      K[w] = q.ket;
    }
    const ShellPairHermite& b0 = *B[0];
    const ShellPairHermite& k0 = *K[0];
    const std::size_t ncb = b0.ncomp_;
    const std::size_t nck = k0.ncomp_;
    const std::size_t nblock = ncb * nck;

    for (std::size_t w = 0; w < nw; ++w) {
      EriBlock& o = out[idx[w]];
      o.na = b0.na_;
      o.nb = b0.nb_;
      o.nc = k0.na_;
      o.nd = k0.nb_;
      o.values.resize(nblock);
    }

    const int lab = b0.lab_;
    const int lcd = k0.lab_;
    const int tuv_max = lab + lcd;
    const std::size_t rn1 = static_cast<std::size_t>(tuv_max + 1);
    const std::size_t nu = b0.union_coords_.size();
    if (nu == 0) {
      for (std::size_t w = 0; w < nw; ++w)
        std::fill(out[idx[w]].values.begin(), out[idx[w]].values.end(), 0.0);
      return;
    }
    const std::size_t npb = b0.prims_.size();
    const std::size_t npk = k0.prims_.size();

    // ---- Batch packing: shared structure from lane 0, values SoA.
    tls.rbase.resize(nu);
    for (std::size_t pnt = 0; pnt < nu; ++pnt) {
      const HermiteCoord c = b0.union_coords_[pnt];
      tls.rbase[pnt] = static_cast<std::uint32_t>(
          (static_cast<std::size_t>(c.t) * rn1 + c.u) * rn1 + c.v);
    }

    tls.ent_off_b.resize(npb + 1);
    tls.ent_off_b[0] = 0;
    for (std::size_t p = 0; p < npb; ++p)
      tls.ent_off_b[p + 1] = tls.ent_off_b[p] + b0.prims_[p].entries.size();
    tls.ent_off_k.resize(npk + 1);
    tls.ent_off_k[0] = 0;
    for (std::size_t p = 0; p < npk; ++p)
      tls.ent_off_k[p + 1] = tls.ent_off_k[p] + k0.prims_[p].entries.size();

    const double pi52 = 2.0 * std::pow(std::numbers::pi, 2.5);
    tls.bra_vals.resize(tls.ent_off_b[npb] * kW);
    tls.ket_svals.resize(tls.ent_off_k[npk] * kW);
    tls.bp_p.resize(npb * kW);
    tls.bp_x.resize(npb * kW);
    tls.bp_y.resize(npb * kW);
    tls.bp_z.resize(npb * kW);
    tls.bp_me.resize(npb * kW);
    tls.bp_c.resize(npb * kW);
    tls.kp_p.resize(npk * kW);
    tls.kp_x.resize(npk * kW);
    tls.kp_y.resize(npk * kW);
    tls.kp_z.resize(npk * kW);
    tls.kp_me.resize(npk * kW);
    tls.kp_c.resize(npk * kW);
    for (std::size_t p = 0; p < npb; ++p) {
      double* vals = tls.bra_vals.data() + tls.ent_off_b[p] * kW;
      for (std::size_t w = 0; w < kW; ++w) {
        const auto& pr = B[w]->prims_[p];
        tls.bp_p[p * kW + w] = pr.p;
        tls.bp_x[p * kW + w] = pr.center.x;
        tls.bp_y[p * kW + w] = pr.center.y;
        tls.bp_z[p * kW + w] = pr.center.z;
        tls.bp_me[p * kW + w] = pr.max_abs_e;
        tls.bp_c[p * kW + w] = pi52 / pr.p;
        for (std::size_t e = 0; e < pr.entries.size(); ++e)
          vals[e * kW + w] = pr.entries[e].val;
      }
    }
    for (std::size_t p = 0; p < npk; ++p) {
      double* svals = tls.ket_svals.data() + tls.ent_off_k[p] * kW;
      for (std::size_t w = 0; w < kW; ++w) {
        const auto& pr = K[w]->prims_[p];
        tls.kp_p[p * kW + w] = pr.p;
        tls.kp_x[p * kW + w] = pr.center.x;
        tls.kp_y[p * kW + w] = pr.center.y;
        tls.kp_z[p * kW + w] = pr.center.z;
        tls.kp_me[p * kW + w] = pr.max_abs_e;
        tls.kp_c[p * kW + w] = 1.0 / pr.p;
        for (std::size_t e = 0; e < pr.entries.size(); ++e)
          svals[e * kW + w] = pr.entries[e].sval;
      }
    }

    const std::size_t rcube = rn1 * rn1 * rn1;
    tls.r_a.resize(rcube * kW);
    tls.r_b.resize(rcube * kW);
    tls.panel.resize(nck * nu * kW);
    tls.acc.assign(nblock * kW, 0.0);
    const std::uint32_t* rbase = tls.rbase.data();
    double* panel = tls.panel.data();
    double* acc = tls.acc.data();

    // ---- Per bra primitive: fold every ket primitive into one panel
    // (stage 1), then one bra transform of that panel (stage 2).
    for (std::size_t bi = 0; bi < npb; ++bi) {
      bool fresh = true;  // the panel holds nothing of this bra primitive
      for (std::size_t ki = 0; ki < npk; ++ki) {
        // pref = 2π^{5/2} / (p q √(p+q)), α = p q / (p+q), T = α |P−Q|².
        const std::size_t ob = bi * kW, ok = ki * kW;
        const V8 p = v8_load(&tls.bp_p[ob]);
        const V8 q = v8_load(&tls.kp_p[ok]);
        double root[kW];
        for (std::size_t w = 0; w < kW; ++w) root[w] = std::sqrt(p[w] + q[w]);
        const V8 rs = v8_broadcast(1.0) / v8_load(root);
        const V8 dx = v8_load(&tls.bp_x[ob]) - v8_load(&tls.kp_x[ok]);
        const V8 dy = v8_load(&tls.bp_y[ob]) - v8_load(&tls.kp_y[ok]);
        const V8 dz = v8_load(&tls.bp_z[ob]) - v8_load(&tls.kp_z[ok]);
        const V8 alpha = p * q * (rs * rs);
        double targ[kW];
        v8_store(targ, alpha * (dx * dx + dy * dy + dz * dz));
        V8 pref = v8_load(&tls.bp_c[ob]) * v8_load(&tls.kp_c[ok]) * rs;
        const V8 bound =
            pref * v8_load(&tls.bp_me[ob]) * v8_load(&tls.kp_me[ok]);
        bool any = false;
        for (std::size_t w = 0; w < kW; ++w) {
          if (w >= nw || bound[w] < kEriPrimitiveCutoff)
            pref[w] = 0.0;
          else
            any = true;
        }
        if (!any) continue;

        double f[(kBoysMaxM + 1) * kW];
        static_assert(kEriMaxTuv <= kBoysMaxM);
        boys_batch(tuv_max, targ, f);

        // R-tensor recurrence over lanes, same term association as the
        // scalar RTensor.
        const double* r = build_r(tuv_max, alpha, dx, dy, dz, f);

        // Stage 1 — ket contraction, prefactor folded into the ket
        // values, accumulated over ket primitives into the bra-union
        // panel. The first contributing ket primitive stores instead of
        // adding (no zero-fill pass); entries fold in two at a time to
        // amortize the panel read-modify-write.
        const auto& kp0 = k0.prims_[ki];
        const V8 vpref = pref;
        const auto r_of = [r, rn1](const HermiteEntry& e) {
          return r + ((static_cast<std::size_t>(e.t) * rn1 + e.u) * rn1 + e.v) *
                         kW;
        };
        for (std::size_t kc = 0; kc < nck; ++kc) {
          double* panel_kc = panel + kc * nu * kW;
          const HermiteEntry* ke = kp0.entries.data() + kp0.comp_begin[kc];
          const std::size_t ne = kp0.comp_begin[kc + 1] - kp0.comp_begin[kc];
          const double* sv = tls.ket_svals.data() +
                             (tls.ent_off_k[ki] + kp0.comp_begin[kc]) * kW;
          std::size_t e = 0;
          if (fresh) {
            if (ne == 0) {
              std::fill(panel_kc, panel_kc + nu * kW, 0.0);
              continue;
            }
            const double* rk = r_of(ke[0]);
            const V8 s0 = vpref * v8_load(sv);
            for (std::size_t pnt = 0; pnt < nu; ++pnt)
              v8_store(panel_kc + pnt * kW,
                       s0 * v8_load(rk + static_cast<std::size_t>(rbase[pnt]) *
                                             kW));
            e = 1;
          }
          for (; e + 1 < ne; e += 2) {
            const double* rk0 = r_of(ke[e]);
            const double* rk1 = r_of(ke[e + 1]);
            const V8 s0 = vpref * v8_load(sv + e * kW);
            const V8 s1 = vpref * v8_load(sv + (e + 1) * kW);
            for (std::size_t pnt = 0; pnt < nu; ++pnt) {
              const std::size_t off = static_cast<std::size_t>(rbase[pnt]) * kW;
              double* pp = panel_kc + pnt * kW;
              v8_store(pp, v8_load(pp) + s0 * v8_load(rk0 + off) +
                               s1 * v8_load(rk1 + off));
            }
          }
          if (e < ne) {
            const double* rk = r_of(ke[e]);
            const V8 s0 = vpref * v8_load(sv + e * kW);
            for (std::size_t pnt = 0; pnt < nu; ++pnt) {
              double* pp = panel_kc + pnt * kW;
              v8_store(pp, v8_load(pp) +
                               s0 * v8_load(rk + static_cast<std::size_t>(
                                                     rbase[pnt]) *
                                                     kW));
            }
          }
        }
        fresh = false;
      }
      if (fresh) continue;  // no ket primitive survived the cutoff

      // Stage 2 — bra sparse dots against the folded panel, four ket
      // components per pass so each bra value load feeds four FMAs,
      // accumulated lane-wise into the SoA output blocks.
      const auto& bp0 = b0.prims_[bi];
      for (std::size_t bc = 0; bc < ncb; ++bc) {
        const HermiteEntry* be0 = bp0.entries.data() + bp0.comp_begin[bc];
        const HermiteEntry* be1 = bp0.entries.data() + bp0.comp_begin[bc + 1];
        const double* bv0 = tls.bra_vals.data() +
                            (tls.ent_off_b[bi] + bp0.comp_begin[bc]) * kW;
        double* arow = acc + bc * nck * kW;
        std::size_t kc = 0;
        for (; kc + 4 <= nck; kc += 4) {
          const double* p0 = panel + kc * nu * kW;
          const double* p1 = p0 + nu * kW;
          const double* p2 = p1 + nu * kW;
          const double* p3 = p2 + nu * kW;
          V8 s0 = v8_zero(), s1 = v8_zero(), s2 = v8_zero(), s3 = v8_zero();
          const double* bv = bv0;
          for (const HermiteEntry* be = be0; be != be1; ++be, bv += kW) {
            const std::size_t off = static_cast<std::size_t>(be->upos) * kW;
            const V8 b = v8_load(bv);
            s0 = s0 + b * v8_load(p0 + off);
            s1 = s1 + b * v8_load(p1 + off);
            s2 = s2 + b * v8_load(p2 + off);
            s3 = s3 + b * v8_load(p3 + off);
          }
          double* a = arow + kc * kW;
          v8_store(a, v8_load(a) + s0);
          v8_store(a + kW, v8_load(a + kW) + s1);
          v8_store(a + 2 * kW, v8_load(a + 2 * kW) + s2);
          v8_store(a + 3 * kW, v8_load(a + 3 * kW) + s3);
        }
        for (; kc < nck; ++kc) {
          const double* panel_kc = panel + kc * nu * kW;
          V8 sum = v8_zero();
          const double* bv = bv0;
          for (const HermiteEntry* be = be0; be != be1; ++be, bv += kW)
            sum = sum + v8_load(bv) *
                            v8_load(panel_kc +
                                    static_cast<std::size_t>(be->upos) * kW);
          double* a = arow + kc * kW;
          v8_store(a, v8_load(a) + sum);
        }
      }
    }

    // ---- Scatter: each lane's block out of the SoA accumulator.
    for (std::size_t w = 0; w < nw; ++w) {
      double* o = out[idx[w]].values.data();
      for (std::size_t i = 0; i < nblock; ++i) o[i] = acc[i * kW + w];
    }
  }
};

void eri_shell_quartet_batched(std::span<const QuartetRef> stream,
                               EriBlock* out) {
  BatchedEri::run(stream, out);
}

}  // namespace mthfx::ints
