#include "ints/eri_batch.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <numbers>
#include <vector>

#include "ints/boys.hpp"
#include "ints/simd.hpp"

namespace mthfx::ints {

namespace {

constexpr std::size_t kW = kBoysBatchWidth;

// One stream entry's sort record: the (bra, ket) class ids, then the
// stream index, so an unstable sort orders exactly like a stable sort
// by class.
struct SortKey {
  std::uint32_t bra, ket;
  std::uint32_t index;
  bool operator<(const SortKey& o) const {
    if (bra != o.bra) return bra < o.bra;
    if (ket != o.ket) return ket < o.ket;
    return index < o.index;
  }
};

// One skeleton entry a batch evaluates: its value index in the pair's
// skeleton and its R offset (ket) or panel offset (bra), times kW. Lane
// values are packed in term order, so term t's values sit at t * kW.
struct Term {
  std::uint32_t e, off;
};

// Per-thread scratch, grow-only so the hot path never allocates warm.
struct BatchScratch {
  std::vector<SortKey> order;      // the stream, sorted by class
  // Packed per-primitive lane data, SoA: term t, lane w at [t * kW + w].
  // Only the batch's terms are packed; entry coordinates are the
  // classes' skeletons.
  std::vector<double> bra_vals;    // [bra prim][bra term][lane] (E)
  std::vector<double> ket_svals;   // [ket prim][ket term][lane] (signed E)
  // [prim * kW + w]: exponent sum, center, max |E|, and the
  // prefactor's per-primitive part (2π^{5/2}/p on the bra, 1/q on the ket).
  std::vector<double> bp_p, bp_x, bp_y, bp_z, bp_me, bp_c;
  std::vector<double> kp_p, kp_x, kp_y, kp_z, kp_me, kp_c;
  // The bra lanes the bra data below was packed from in this run call
  // (null at its start: pairs are freed between calls, so an address
  // may come back holding another pair).
  const ShellPairHermite* packed_bra[kW] = {};
  std::size_t rbase_rn1 = 0;  // R stride rbase was built for
  // Entries nonzero in some lane, per component ([begin[c], begin[c+1])
  // of terms). A term zero in every lane would add exact zeros.
  std::vector<Term> bra_terms, ket_terms;
  std::vector<std::uint32_t> bra_begin, ket_begin;
  std::vector<std::uint64_t> live;       // OR of the lanes' live_ masks
  std::vector<std::uint32_t> point_of;   // bra union point -> panel point
  std::vector<std::uint32_t> rbase;      // panel point -> flat R offset
  std::vector<double> r_a, r_b;      // ping-pong R slices, [offset][lane]
  std::vector<double> panel;  // ket-folded [ket comp][panel point][lane]
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

// Lane-parallel Hermite Coulomb tensor: the detail::RTensor recurrence
// (hermite_fixed.hpp) with every slot widened to kW lanes. Returns the n = 0 slice,
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
  static std::size_t run(std::span<const QuartetRef> stream, EriBlock* out,
                         double* seconds) {
    using Clock = std::chrono::steady_clock;
    const std::size_t n = stream.size();
    if (n == 0) return 0;
    Clock::time_point last = seconds ? Clock::now() : Clock::time_point{};
    std::fill(std::begin(tls.packed_bra), std::end(tls.packed_bra), nullptr);

    // Sort by the pairs' class ids; the stream index breaks ties, so
    // batch composition is a pure function of the stream. A batch takes
    // consecutive entries of one (bra class, ket class): equal ids mean
    // one skeleton and one primitive count, so the lanes share every
    // loop bound and index.
    std::vector<SortKey>& order = tls.order;
    order.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      order[i] = {stream[i].bra->class_id(), stream[i].ket->class_id(),
                  static_cast<std::uint32_t>(i)};
    std::sort(order.begin(), order.end());

    std::uint32_t idx[kW];
    std::size_t batches = 0;
    std::size_t i = 0;
    while (i < n) {
      const SortKey& k0 = order[i];
      std::size_t nw = 0;
      idx[nw++] = k0.index;
      for (++i; i < n && nw < kW; ++i) {
        const SortKey& k = order[i];
        if (k.bra != k0.bra || k.ket != k0.ket) break;
        idx[nw++] = k.index;
      }
      eval_batch(stream, idx, nw, out);
      ++batches;
      if (seconds) {
        // Time since the previous batch ended (the first batch also
        // carries the sort), so the shares add up to the whole call.
        const Clock::time_point now = Clock::now();
        const double share =
            std::chrono::duration<double>(now - last).count() /
            static_cast<double>(nw);
        for (std::size_t w = 0; w < nw; ++w) seconds[idx[w]] = share;
        last = now;
      }
    }
    return batches;
  }

 private:
  // OR of the live_ masks of the first n lanes.
  static const std::vector<std::uint64_t>& live_mask(
      const ShellPairHermite* const* lanes, std::size_t n) {
    tls.live = lanes[0]->live_;
    for (std::size_t w = 1; w < n; ++w)
      for (std::size_t i = 0; i < tls.live.size(); ++i)
        tls.live[i] |= lanes[w]->live_[i];
    return tls.live;
  }
  static bool is_live(const std::vector<std::uint64_t>& live, std::size_t e) {
    return (live[e / 64] >> (e % 64)) & 1;
  }
  // The live entries of each of sk's components, in skeleton order, with
  // the offset `off(entry)`.
  template <class Offset>
  static void collect_terms(const PairSkeleton& sk,
                            const std::vector<std::uint64_t>& live,
                            std::vector<Term>& terms,
                            std::vector<std::uint32_t>& begin, Offset off) {
    terms.clear();
    begin.clear();
    for (std::size_t c = 0; c + 1 < sk.comp_begin.size(); ++c) {
      begin.push_back(static_cast<std::uint32_t>(terms.size()));
      for (std::uint32_t e = sk.comp_begin[c]; e < sk.comp_begin[c + 1]; ++e)
        if (is_live(live, e))
          terms.push_back(
              {e, static_cast<std::uint32_t>(off(sk.entries[e]))});
    }
    begin.push_back(static_cast<std::uint32_t>(terms.size()));
  }

  // Every lane's block is a pure function of its own (bra, ket): lanes
  // share only control flow. A lane whose primitive combination falls
  // below the cutoff (or a padded tail lane) runs with pref = 0 and adds
  // exact zeros to accumulators that start at +0.0, which leaves every
  // value as the skip the lane would take alone. Skeleton slots a pair
  // leaves empty hold exact zeros too, so they change no value either
  // (at most the sign of an exactly zero element).
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
    const PairSkeleton& bs = *B[0]->skel_;
    const PairSkeleton& ks = *K[0]->skel_;
    const std::size_t ncb = bs.na * bs.nb;
    const std::size_t nck = ks.na * ks.nb;
    const std::size_t nblock = ncb * nck;

    for (std::size_t w = 0; w < nw; ++w) {
      EriBlock& o = out[idx[w]];
      o.na = bs.na;
      o.nb = bs.nb;
      o.nc = ks.na;
      o.nd = ks.nb;
      o.values.resize(nblock);
    }

    const int tuv_max = bs.lab + ks.lab;
    const std::size_t rn1 = static_cast<std::size_t>(tuv_max + 1);
    const std::size_t npb = B[0]->prims_.size();
    const std::size_t npk = K[0]->prims_.size();
    const std::size_t neb = bs.entries.size();
    const std::size_t nek = ks.entries.size();

    // ---- Term lists, then batch packing: the lanes' values of each
    // term, SoA. A batch whose bra lanes are the previous batch's (say,
    // consecutive batches that all take one bra row) keeps the packed bra.
    const bool new_bra =
        !std::equal(B, B + kW, std::begin(tls.packed_bra));
    if (new_bra || tls.rbase_rn1 != rn1) {
      // The panel holds only the union points a live bra entry reads.
      tls.rbase_rn1 = rn1;
      const std::vector<std::uint64_t>& live = live_mask(B, kW);
      tls.point_of.assign(bs.union_coords.size(), 0);
      for (std::size_t e = 0; e < neb; ++e)
        if (is_live(live, e)) tls.point_of[bs.entries[e].upos] = 1;
      tls.rbase.clear();
      for (std::size_t pnt = 0; pnt < bs.union_coords.size(); ++pnt) {
        if (!tls.point_of[pnt]) continue;
        tls.point_of[pnt] = static_cast<std::uint32_t>(tls.rbase.size());
        const HermiteCoord c = bs.union_coords[pnt];
        tls.rbase.push_back(static_cast<std::uint32_t>(
            (static_cast<std::size_t>(c.t) * rn1 + c.u) * rn1 + c.v));
      }
      collect_terms(bs, live, tls.bra_terms, tls.bra_begin,
                    [](const HermiteEntry& h) {
                      return tls.point_of[h.upos] * kW;
                    });
    }
    const std::size_t nu = tls.rbase.size();
    const std::size_t nbt = tls.bra_terms.size();
    if (new_bra) {
      std::copy(B, B + kW, std::begin(tls.packed_bra));
      const double pi52 = 2.0 * std::pow(std::numbers::pi, 2.5);
      tls.bra_vals.resize(npb * nbt * kW);
      tls.bp_p.resize(npb * kW);
      tls.bp_x.resize(npb * kW);
      tls.bp_y.resize(npb * kW);
      tls.bp_z.resize(npb * kW);
      tls.bp_me.resize(npb * kW);
      tls.bp_c.resize(npb * kW);
      for (std::size_t p = 0; p < npb; ++p) {
        double* vals = tls.bra_vals.data() + p * nbt * kW;
        for (std::size_t w = 0; w < kW; ++w) {
          const auto& pr = B[w]->prims_[p];
          tls.bp_p[p * kW + w] = pr.p;
          tls.bp_x[p * kW + w] = pr.center.x;
          tls.bp_y[p * kW + w] = pr.center.y;
          tls.bp_z[p * kW + w] = pr.center.z;
          tls.bp_me[p * kW + w] = pr.max_abs_e;
          tls.bp_c[p * kW + w] = pi52 / pr.p;
          const double* src = B[w]->vals_.data() + p * neb;
          for (std::size_t t = 0; t < nbt; ++t)
            vals[t * kW + w] = src[tls.bra_terms[t].e];
        }
      }
    }
    collect_terms(ks, live_mask(K, nw), tls.ket_terms, tls.ket_begin,
                  [rn1](const HermiteEntry& h) {
                    return ((h.t * rn1 + h.u) * rn1 + h.v) * kW;
                  });
    const std::size_t nkt = tls.ket_terms.size();

    tls.ket_svals.resize(npk * nkt * kW);
    tls.kp_p.resize(npk * kW);
    tls.kp_x.resize(npk * kW);
    tls.kp_y.resize(npk * kW);
    tls.kp_z.resize(npk * kW);
    tls.kp_me.resize(npk * kW);
    tls.kp_c.resize(npk * kW);
    for (std::size_t p = 0; p < npk; ++p) {
      double* svals = tls.ket_svals.data() + p * nkt * kW;
      for (std::size_t w = 0; w < kW; ++w) {
        const auto& pr = K[w]->prims_[p];
        tls.kp_p[p * kW + w] = pr.p;
        tls.kp_x[p * kW + w] = pr.center.x;
        tls.kp_y[p * kW + w] = pr.center.y;
        tls.kp_z[p * kW + w] = pr.center.z;
        tls.kp_me[p * kW + w] = pr.max_abs_e;
        tls.kp_c[p * kW + w] = 1.0 / pr.p;
        const double* src = K[w]->vals_.data() + p * nek;
        for (std::size_t t = 0; t < nkt; ++t) {
          const std::uint32_t e = tls.ket_terms[t].e;
          svals[t * kW + w] = ks.entries[e].odd ? -src[e] : src[e];
        }
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

        // R-tensor recurrence over lanes, same term association as
        // detail::RTensor.
        const double* r = build_r(tuv_max, alpha, dx, dy, dz, f);

        // Stage 1 — ket contraction, prefactor folded into the ket
        // values, accumulated over ket primitives into the bra-union
        // panel. The first contributing ket primitive stores instead of
        // adding (no zero-fill pass); entries fold in two at a time to
        // amortize the panel read-modify-write.
        const V8 vpref = pref;
        const double* svk = tls.ket_svals.data() + ki * nkt * kW;
        for (std::size_t kc = 0; kc < nck; ++kc) {
          double* panel_kc = panel + kc * nu * kW;
          const Term* kt = tls.ket_terms.data() + tls.ket_begin[kc];
          const double* sv = svk + tls.ket_begin[kc] * kW;
          const std::size_t ne = tls.ket_begin[kc + 1] - tls.ket_begin[kc];
          std::size_t e = 0;
          if (fresh) {
            if (ne == 0) {
              std::fill(panel_kc, panel_kc + nu * kW, 0.0);
              continue;
            }
            const double* rk = r + kt[0].off;
            const V8 s0 = vpref * v8_load(sv);
            for (std::size_t pnt = 0; pnt < nu; ++pnt)
              v8_store(panel_kc + pnt * kW,
                       s0 * v8_load(rk + static_cast<std::size_t>(rbase[pnt]) *
                                             kW));
            e = 1;
          }
          for (; e + 1 < ne; e += 2) {
            const double* rk0 = r + kt[e].off;
            const double* rk1 = r + kt[e + 1].off;
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
            const double* rk = r + kt[e].off;
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
      const double* bvp = tls.bra_vals.data() + bi * nbt * kW;
      for (std::size_t bc = 0; bc < ncb; ++bc) {
        const Term* bt0 = tls.bra_terms.data() + tls.bra_begin[bc];
        const Term* bt1 = tls.bra_terms.data() + tls.bra_begin[bc + 1];
        const double* bv0 = bvp + tls.bra_begin[bc] * kW;
        double* arow = acc + bc * nck * kW;
        std::size_t kc = 0;
        for (; kc + 4 <= nck; kc += 4) {
          const double* p0 = panel + kc * nu * kW;
          const double* p1 = p0 + nu * kW;
          const double* p2 = p1 + nu * kW;
          const double* p3 = p2 + nu * kW;
          V8 s0 = v8_zero(), s1 = v8_zero(), s2 = v8_zero(), s3 = v8_zero();
          const double* bv = bv0;
          for (const Term* bt = bt0; bt != bt1; ++bt, bv += kW) {
            const V8 b = v8_load(bv);
            s0 = s0 + b * v8_load(p0 + bt->off);
            s1 = s1 + b * v8_load(p1 + bt->off);
            s2 = s2 + b * v8_load(p2 + bt->off);
            s3 = s3 + b * v8_load(p3 + bt->off);
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
          for (const Term* bt = bt0; bt != bt1; ++bt, bv += kW)
            sum = sum + v8_load(bv) * v8_load(panel_kc + bt->off);
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

std::size_t eri_shell_quartet_batched(std::span<const QuartetRef> stream,
                                      EriBlock* out, double* seconds) {
  return BatchedEri::run(stream, out, seconds);
}

}  // namespace mthfx::ints
