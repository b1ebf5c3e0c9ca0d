#include "hfx/fock_builder.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "hfx/schedulers.hpp"
#include "ints/eri.hpp"
#include "ints/eri_batch.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "parallel/reduce.hpp"
#include "parallel/thread_pool.hpp"

namespace mthfx::hfx {

using chem::BasisSet;
using linalg::Matrix;

namespace {

// Digest one computed shell quartet into J/K accumulators.
//
// For a canonical AO quartet (i >= j, k >= l, pair(ij) >= pair(kl)) the
// 8-member permutational orbit collapses according to three coincidence
// flags: e1 = (i == j), e2 = (k == l), e3 = (ij == kl). The update lists
// enumerate exactly the distinct orbit members for every flag
// combination (verified case-by-case against explicit orbit
// deduplication in the unit tests via the dense reference).
// j_acc may be null (exchange-only build).
void digest_quartet(const BasisSet& basis, std::uint32_t sa, std::uint32_t sb,
                    std::uint32_t sc, std::uint32_t sd,
                    const ints::EriBlock& block, const Matrix& density,
                    Matrix* j_acc, Matrix& k_acc, bool braket_same,
                    double eps_contribution) {
  const std::size_t oa = basis.first_function(sa);
  const std::size_t ob = basis.first_function(sb);
  const std::size_t oc = basis.first_function(sc);
  const std::size_t od = basis.first_function(sd);
  const bool ab_same = (sa == sb);
  const bool cd_same = (sc == sd);

  for (std::size_t ia = 0; ia < block.na; ++ia) {
    const std::size_t i = oa + ia;
    for (std::size_t ib = 0; ib < block.nb; ++ib) {
      const std::size_t jj = ob + ib;
      if (ab_same && i < jj) continue;
      const std::size_t ij = i * (i + 1) / 2 + jj;
      for (std::size_t ic = 0; ic < block.nc; ++ic) {
        const std::size_t k = oc + ic;
        const std::size_t klbase = k * (k + 1) / 2;
        for (std::size_t id = 0; id < block.nd; ++id) {
          const std::size_t l = od + id;
          if (cd_same && k < l) continue;
          if (braket_same && ij < klbase + l) continue;
          const double v = block(ia, ib, ic, id);
          if (std::abs(v) < eps_contribution) continue;

          const bool e1 = (i == jj);
          const bool e2 = (k == l);
          const bool e3 = (i == k && jj == l);

          if (j_acc) {
            Matrix& j = *j_acc;
            const double jv1 = (e2 ? 1.0 : 2.0) * density(k, l) * v;
            j(i, jj) += jv1;
            if (!e1) j(jj, i) += jv1;
            if (!e3) {
              const double jv2 = (e1 ? 1.0 : 2.0) * density(i, jj) * v;
              j(k, l) += jv2;
              if (!e2) j(l, k) += jv2;
            }
          }

          k_acc(i, k) += density(jj, l) * v;
          if (!e1) k_acc(jj, k) += density(i, l) * v;
          if (!e2) k_acc(i, l) += density(jj, k) * v;
          if (!e1 && !e2) k_acc(jj, l) += density(i, k) * v;
          if (!e3) {
            k_acc(k, i) += density(l, jj) * v;
            if (!e2) k_acc(l, i) += density(k, jj) * v;
            if (!e1) k_acc(k, jj) += density(l, i) * v;
            if (!e1 && !e2) k_acc(l, jj) += density(k, i) * v;
          }
        }
      }
    }
  }
}

bool all_finite(const Matrix& m) {
  for (const double v : m.flat())
    if (!std::isfinite(v)) return false;
  return true;
}

// One chunk's J/K contribution (j stays empty in exchange-only builds).
struct JkPartial {
  Matrix k, j;
  void clear() {
    k.fill(0.0);
    j.fill(0.0);
  }
  JkPartial& operator+=(const JkPartial& other) {
    k += other.k;
    j += other.j;
    return *this;
  }
};

// Chunk ends (task indices) over a builder's task list: the cut of its
// bra rows (parallel::cut_chunks), each row costed as a one-task row
// whatever the task grain. The cut therefore depends on the pair list
// alone, and splitting rows into finer tasks moves no chunk boundary and
// no quartet between chunks.
std::vector<std::size_t> chunk_ends(const BasisSet& basis,
                                    const ShellPairList& pairs,
                                    double eps_schwarz,
                                    const std::vector<QuartetTask>& tasks) {
  const std::vector<QuartetTask> rows =
      tasks.size() == pairs.size() ? tasks
                                   : make_tasks(basis, pairs, 0.0, eps_schwarz);
  std::vector<double> costs(rows.size());
  for (std::size_t b = 0; b < rows.size(); ++b) costs[b] = rows[b].est_cost;
  std::vector<std::size_t> end = parallel::cut_chunks(costs);
  std::size_t t = 0;  // tasks are sorted by bra row
  for (std::size_t& e : end) {
    while (t < tasks.size() && tasks[t].bra < e) ++t;
    e = t;
  }
  return end;
}

// Expands the pairs the cull left without a table: those that cleared
// its eps rule only against the final max_q.
void expand_missing(
    const BasisSet& basis, const ShellPairList& pairs,
    std::vector<std::optional<ints::ShellPairHermite>>& hermites) {
  for (std::size_t i = 0; i < pairs.size(); ++i)
    if (!hermites[i])
      hermites[i].emplace(basis.shell(pairs[i].sa), basis.shell(pairs[i].sb));
}

// One task per bra row unless a dense caller asks for finer tasks (stream
// groups give those the same kernel batches rows get); blocked builders
// always run rows, the unit the link walk enumerates.
std::vector<QuartetTask> builder_tasks(const BasisSet& basis,
                                       const ShellPairList& pairs,
                                       const HfxOptions& options,
                                       bool blocked) {
  return make_tasks(basis, pairs, blocked ? 0.0 : options.target_task_cost,
                    options.eps_schwarz);
}

// A thread's stream buffers: the kets, quartets, blocks and per-quartet
// kernel seconds of the stream group it last evaluated. Grow-only and
// per thread, so warm builds do not allocate; which tasks they hold is
// the build's StreamGroup state.
struct StreamBuffers {
  std::vector<std::uint32_t> candidates;  // link-walk proposals of one row
  std::vector<std::uint32_t> kets;        // survivors, task after task
  std::vector<ints::QuartetRef> stream;
  std::vector<ints::EriBlock> blocks;
  std::vector<double> seconds;
};
thread_local StreamBuffers stream_buffers;

// Density-linked (LinK-style) ket source of blocked builders.
//
// The range source visits a task's whole live ket prefix: Θ(pairs²)
// visits per build even when the density screen then kills almost all of
// them. In a large insulating box nearly every exchange quartet dies on
// the density test (P decays with distance), so the visit count itself
// must track the survivors for the build to be near-linear.
//
// A quartet (bra | ket) survives the combined test only if
// q_bra * q_ket * w >= eps for at least one link weight w drawn from
//   - the four bra-ket cross blocks max|P| (exchange term), or
//   - max|P| of the bra block or of the ket block (Coulomb term).
// Each such w defines a link list sorted so the condition is monotone,
// letting the walk break at the first failure. The union of the walks is
// a superset of the survivors; the task body re-checks every candidate
// with the range source's tests in ascending ket order, so both sources
// compute the same quartets in the same order.
class LinkWalk {
 public:
  /// Per-thread dedupe state across the link walks of one row.
  struct Scratch {
    std::vector<std::uint32_t> stamp;
    std::uint32_t epoch = 0;
  };

  LinkWalk(const ShellPairList& pairs,
           const std::vector<std::vector<std::uint32_t>>& pairs_by_shell,
           const Matrix& block_max, double eps, bool want_coulomb)
      : pairs_(pairs),
        pairs_by_shell_(pairs_by_shell),
        block_max_(block_max),
        eps_(eps),
        want_coulomb_(want_coulomb),
        qmax_(pairs.max_q()),
        shell_qmax_(pairs_by_shell.size(), 0.0),
        partners_(pairs_by_shell.size()) {
    const std::size_t ns = pairs_by_shell.size();
    const std::size_t np = pairs.size();
    // Largest pair q containing each shell: used to skip whole link lists.
    for (const ShellPair& pr : pairs.pairs()) {
      shell_qmax_[pr.sa] = std::max(shell_qmax_[pr.sa], pr.q);
      shell_qmax_[pr.sb] = std::max(shell_qmax_[pr.sb], pr.q);
    }
    // Exchange link lists: per shell e, partner shells f with block
    // density above the universal floor eps / qmax² (below it no quartet
    // can pass), sorted by descending |P| block so walks break early.
    const double pfloor = qmax_ > 0.0 ? eps / (qmax_ * qmax_) : 0.0;
    for (std::size_t e = 0; e < ns; ++e) {
      for (std::size_t f = 0; f < ns; ++f) {
        const double p = block_max(e, f);
        if (p >= pfloor && shell_qmax_[f] > 0.0)
          partners_[e].push_back({static_cast<std::uint32_t>(f), p});
      }
      std::sort(partners_[e].begin(), partners_[e].end(),
                [](const Partner& x, const Partner& y) { return x.p > y.p; });
    }
    // Coulomb ket-side link list: pair indices sorted by descending
    // q_ket * max|P(ket block)|, the weight of the "ket density drives J"
    // term. (The bra-density term instead walks the global pair order,
    // which is already descending in q.)
    if (want_coulomb) {
      jweight_.resize(np);
      jorder_.resize(np);
      for (std::size_t i = 0; i < np; ++i) {
        jweight_[i] = pairs[i].q * block_max(pairs[i].sa, pairs[i].sb);
        jorder_[i] = static_cast<std::uint32_t>(i);
      }
      std::sort(jorder_.begin(), jorder_.end(),
                [&](std::uint32_t x, std::uint32_t y) {
                  return jweight_[x] > jweight_[y];
                });
    }
  }

  /// Candidate kets of bra b below `live` into `out`: ascending, without
  /// duplicates, and a superset of the kets that pass the density test.
  void candidates(std::size_t b, std::size_t live, Scratch& scratch,
                  std::vector<std::uint32_t>& out) const {
    if (scratch.stamp.size() != pairs_.size())
      scratch.stamp.assign(pairs_.size(), 0);
    const std::uint32_t epoch = ++scratch.epoch;
    out.clear();
    const auto push = [&](std::uint32_t idx) {
      if (idx >= live || scratch.stamp[idx] == epoch) return;
      scratch.stamp[idx] = epoch;
      out.push_back(idx);
    };
    const ShellPair& bra = pairs_[b];
    const double qb = bra.q;
    // Exchange links: e in the bra, f a density partner of e, kets
    // containing f in descending q. Monotone breaks use upper bounds
    // (qmax >= shell_qmax[f] >= q_ket), skips use the tight per-shell
    // bound; neither can drop a quartet whose own product passes.
    const std::uint32_t bra_shells[2] = {bra.sa, bra.sb};
    const int ne = bra.sa == bra.sb ? 1 : 2;
    for (int ei = 0; ei < ne; ++ei) {
      for (const Partner& pf : partners_[bra_shells[ei]]) {
        if (qb * qmax_ * pf.p < eps_) break;
        if (qb * shell_qmax_[pf.shell] * pf.p < eps_) continue;
        for (const std::uint32_t idx : pairs_by_shell_[pf.shell]) {
          if (qb * pairs_[idx].q * pf.p < eps_) break;
          push(idx);
        }
      }
    }
    if (want_coulomb_) {
      // Bra-density term: q_b * q_k * max|P(bra block)| >= eps over the
      // global descending-q order.
      const double pbra = block_max_(bra.sa, bra.sb);
      if (pbra > 0.0) {
        for (std::size_t idx = 0; idx < pairs_.size(); ++idx) {
          if (qb * pairs_[idx].q * pbra < eps_) break;
          push(static_cast<std::uint32_t>(idx));
        }
      }
      // Ket-density term: q_b * (q_k * max|P(ket block)|) >= eps over
      // the descending jweight order.
      for (const std::uint32_t idx : jorder_) {
        if (qb * jweight_[idx] < eps_) break;
        push(idx);
      }
    }
    std::sort(out.begin(), out.end());
  }

 private:
  struct Partner {
    std::uint32_t shell;
    double p;
  };

  const ShellPairList& pairs_;
  const std::vector<std::vector<std::uint32_t>>& pairs_by_shell_;
  const Matrix& block_max_;
  double eps_;
  bool want_coulomb_;
  double qmax_;
  std::vector<double> shell_qmax_;
  std::vector<std::vector<Partner>> partners_;
  std::vector<double> jweight_;
  std::vector<std::uint32_t> jorder_;
};

}  // namespace

double HfxStats::imbalance() const {
  double mx = 0.0, total = 0.0;
  for (const double s : thread_busy_seconds) {
    mx = std::max(mx, s);
    total += s;
  }
  if (total <= 0.0 || thread_busy_seconds.empty()) return 1.0;
  const double mean = total / static_cast<double>(thread_busy_seconds.size());
  return mean > 0.0 ? mx / mean : 1.0;
}

obs::Json to_json(const HfxStats& stats) {
  obs::Json out = obs::Json::object();
  out["num_pairs"] = stats.num_pairs;
  out["num_pairs_unscreened"] = stats.num_pairs_unscreened;
  out["num_tasks"] = stats.num_tasks;
  out["kernel_batches"] = stats.kernel_batches;
  out["wall_seconds"] = stats.wall_seconds;
  out["reduce_seconds"] = stats.reduce_seconds;
  out["imbalance"] = stats.imbalance();
  obs::Json screening = obs::Json::object();
  screening["considered"] = stats.screening.quartets_considered;
  screening["schwarz_screened"] = stats.screening.quartets_schwarz_screened;
  screening["density_screened"] = stats.screening.quartets_density_screened;
  screening["computed"] = stats.screening.quartets_computed;
  out["screening"] = std::move(screening);
  obs::Json fault = obs::Json::object();
  fault["injected"] = stats.fault.injected;
  fault["injected_failures"] = stats.fault.injected_failures;
  fault["injected_stalls"] = stats.fault.injected_stalls;
  fault["injected_corruptions"] = stats.fault.injected_corruptions;
  fault["retries"] = stats.fault.retries;
  fault["permanent_failures"] = stats.fault.permanent_failures;
  out["fault"] = std::move(fault);
  obs::Json busy = obs::Json::array();
  for (const double s : stats.thread_busy_seconds) busy.push_back(s);
  out["thread_busy_seconds"] = std::move(busy);
  out["metrics"] = stats.metrics;
  return out;
}

FockBuilder::FockBuilder(const BasisSet& basis, HfxOptions options)
    : basis_(&basis),
      options_(options),
      pool_(options_.num_threads),
      blocked_(options_.sparsity.blocked(basis.num_functions())),
      pairs_(ShellPairList::culled(basis, options_.eps_schwarz, &cull_stats_,
                                   &pair_hermites_)),
      tasks_(builder_tasks(basis, pairs_, options_, blocked_)),
      chunk_end_(chunk_ends(basis, pairs_, options_.eps_schwarz, tasks_)) {
  index_pairs_by_shell();
  expand_missing(basis, pairs_, pair_hermites_);
  if (options_.fault.enabled()) injector_.emplace(options_.fault);
}

void FockBuilder::index_pairs_by_shell() {
  pairs_by_shell_.assign(basis_->num_shells(), {});
  // pairs_ is sorted by descending q, so appending in index order keeps
  // each shell's link list in descending q too — the sorted-break
  // invariant the blocked enumeration relies on.
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    const ShellPair& pr = pairs_[i];
    pairs_by_shell_[pr.sa].push_back(static_cast<std::uint32_t>(i));
    if (pr.sb != pr.sa)
      pairs_by_shell_[pr.sb].push_back(static_cast<std::uint32_t>(i));
  }
}

void FockBuilder::rebind(const BasisSet& basis) {
  const BasisSet& old = *basis_;
  if (basis.num_shells() != old.num_shells() ||
      basis.num_functions() != old.num_functions())
    throw std::invalid_argument("FockBuilder::rebind: shell structure differs");
  const std::size_t ns = basis.num_shells();

  std::vector<char> moved(ns, 0);
  for (std::size_t s = 0; s < ns; ++s) {
    if (basis.shell(s).l() != old.shell(s).l() ||
        basis.shell(s).atom_index() != old.shell(s).atom_index())
      throw std::invalid_argument(
          "FockBuilder::rebind: shell structure differs");
    const chem::Vec3& c0 = old.shell(s).center();
    const chem::Vec3& c1 = basis.shell(s).center();
    moved[s] = (c0.x != c1.x || c0.y != c1.y || c0.z != c1.z) ? 1 : 0;
  }

  // Index the old pair list so surviving unmoved pairs can hand their
  // Hermite tables over where the cull did not expand them.
  std::unordered_map<std::uint64_t, std::size_t> old_index;
  old_index.reserve(pairs_.size());
  for (std::size_t i = 0; i < pairs_.size(); ++i)
    old_index.emplace(
        (static_cast<std::uint64_t>(pairs_[i].sa) << 32) | pairs_[i].sb, i);

  std::vector<std::optional<ints::ShellPairHermite>> new_hermites;
  ShellPairList new_pairs = ShellPairList::culled(
      basis, options_.eps_schwarz, &cull_stats_, &new_hermites);
  std::size_t reused = 0;
  for (std::size_t i = 0; i < new_pairs.size(); ++i) {
    const ShellPair& pr = new_pairs[i];
    if (moved[pr.sa] || moved[pr.sb]) continue;
    const auto it =
        old_index.find((static_cast<std::uint64_t>(pr.sa) << 32) | pr.sb);
    if (it == old_index.end()) continue;
    ++reused;
    if (!new_hermites[i])
      new_hermites[i] = std::move(pair_hermites_[it->second]);
  }
  expand_missing(basis, new_pairs, new_hermites);

  pairs_ = std::move(new_pairs);
  pair_hermites_ = std::move(new_hermites);
  tasks_ = builder_tasks(basis, pairs_, options_, blocked_);
  chunk_end_ = chunk_ends(basis, pairs_, options_.eps_schwarz, tasks_);
  basis_ = &basis;
  index_pairs_by_shell();
  rebind_reused_ = reused;
}

ExchangeResult FockBuilder::exchange(const Matrix& density) const {
  JkResult jk = build(density, /*want_coulomb=*/false);
  return {std::move(jk.k), std::move(jk.stats)};
}

JkResult FockBuilder::coulomb_exchange(const Matrix& density) const {
  return build(density, /*want_coulomb=*/true);
}

ExchangeResult FockBuilder::exchange_blocked(
    const linalg::BlockSparseMatrix& density) const {
  return exchange(density.to_dense());
}

JkResult FockBuilder::coulomb_exchange_blocked(
    const linalg::BlockSparseMatrix& density) const {
  return coulomb_exchange(density.to_dense());
}

JkResult FockBuilder::build(const Matrix& density, bool want_coulomb) const {
  obs::Trace::Scope build_span(obs::global_trace(), "jk.build");
  const std::size_t nao = basis_->num_functions();
  const std::size_t nthreads = pool_.num_threads();
  const double eps_contribution = options_.contribution_cutoff();

  obs::Registry registry(nthreads);
  const obs::Timer busy_timer = registry.timer("hfx.task_seconds");
  const obs::Counter c_considered = registry.counter("hfx.quartets_considered");
  const obs::Counter c_schwarz = registry.counter("hfx.quartets_schwarz_screened");
  const obs::Counter c_density = registry.counter("hfx.quartets_density_screened");
  const obs::Counter c_computed = registry.counter("hfx.quartets_computed");
  const obs::Counter c_batches = registry.counter("hfx.kernel_batches");

  const double eps = options_.eps_schwarz;
  const bool density_screening = options_.density_screening;
  const Matrix block_max = density_screening
                               ? shell_block_max_density(*basis_, density)
                               : Matrix();
  // Ket source: blocked builders walk the density links, dense builders
  // (and builds without a density screen, which keep every live ket)
  // sweep the task's contiguous ket range.
  std::optional<LinkWalk> walk;
  std::vector<LinkWalk::Scratch> walk_scratch;
  if (blocked_ && density_screening) {
    walk.emplace(pairs_, pairs_by_shell_, block_max, eps, want_coulomb);
    walk_scratch.resize(nthreads);
  }

  // Per-task attempt counters give each retry a fresh, independent fault
  // draw; the epoch salts sites so every build in an SCF sequence sees a
  // different (seed-reproducible) fault pattern.
  const std::uint64_t epoch =
      build_epoch_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::uint32_t> attempt_counts(injector_ ? tasks_.size() : 0);

  JkResult result;
  result.stats.num_pairs = pairs_.size();
  result.stats.num_pairs_unscreened = pairs_.unscreened_count();
  result.stats.num_tasks = tasks_.size();
  if (options_.record_task_costs)
    result.stats.task_costs.assign(tasks_.size(), TaskCostRecord{});

  // Each chunk of tasks digests, in task order, into its own zeroed J/K
  // partial (open[tid] while its thread runs it), and the partials merge
  // along the fixed tree over chunk indices as they finish. Only the
  // order of the chunk list and of the tasks in it reaches the sum, so J
  // and K are bitwise independent of thread count and schedule.
  //
  // The schedule hands out runs of whole chunks, and a thread opens and
  // finishes the chunks of its run in turn (chunk[tid]). A pool of one
  // thread runs every chunk as one run, so its stream groups span chunk
  // ends; a larger pool gets one run per chunk, the grain that balances
  // it. Runs move no bit of J or K.
  const auto zero_partial = [&] {
    return JkPartial{Matrix(nao, nao),
                     want_coulomb ? Matrix(nao, nao) : Matrix()};
  };
  std::vector<JkPartial> open(nthreads);
  std::vector<std::size_t> chunk(nthreads, 0);
  parallel::TreeMerge<JkPartial> merge(chunk_end_.size());
  const obs::Timer reduce_timer = registry.timer("hfx.reduce_seconds");
  const auto finish_chunk = [&](std::size_t tid) {
    obs::ScopedTimer reduce(reduce_timer, tid);
    merge.finish(chunk[tid], std::move(open[tid]));
  };
  const auto next_chunk = [&](std::size_t tid) {
    finish_chunk(tid);
    open[tid] = merge.open(zero_partial);
    ++chunk[tid];
  };
  const bool one_run = nthreads == 1 && !chunk_end_.empty();
  TaskChunks runs;
  runs.end = one_run ? std::vector<std::size_t>{chunk_end_.back()} : chunk_end_;

  // Transactional commit: a task's partial is saved before it digests
  // and restored if the task throws or leaves a non-finite value, so a
  // retried (thrown or poisoned) task never double-commits or leaks a
  // partial/corrupt contribution, and commits exactly what a clean run
  // would have.
  const bool transactional = options_.validate_tasks;
  std::vector<JkPartial> saved(transactional ? nthreads : 0);

  // Stream groups: one batched kernel call per stretch of consecutive
  // tasks of a run, so a small build's rows share 8-wide batches. A task
  // whose slice its thread has not evaluated opens a group: it screens
  // tasks from itself on until the group holds kStreamGroupQuartets
  // survivors or the run ends, and evaluates them all in its own body,
  // so an evaluation error is that task's failure and its retry evaluates
  // again. Each task then digests its own slice from the group's blocks,
  // in task order; a retried task re-digests them. A block is a pure
  // function of its own (bra, ket) (eri_batch.hpp), so how tasks group
  // moves no bit of J or K.
  struct Slice {
    std::size_t live = 0;            // end of the task's Schwarz-live kets
    std::size_t begin = 0, end = 0;  // its survivors in the group stream
    double screen_seconds = 0.0;
  };
  struct StreamGroup {
    std::size_t run_end = 0;  // end of the run the thread runs
    std::size_t first = 0;    // tasks [first, first + slices.size())
    std::vector<Slice> slices;
    bool evaluated = false;
    std::uint64_t batches = 0;  // kernel batches no finished task counted
    bool holds(std::size_t task) const {
      return evaluated && task >= first && task - first < slices.size();
    }
  };
  std::vector<StreamGroup> groups(nthreads);
  runs.begin = [&](std::size_t run, std::size_t tid) {
    chunk[tid] = one_run ? 0 : run;
    open[tid] = merge.open(zero_partial);
    groups[tid].run_end = runs.end[run];
  };
  runs.finish = [&](std::size_t run, std::size_t tid) {
    const std::size_t last = one_run ? chunk_end_.size() - 1 : run;
    while (chunk[tid] < last) next_chunk(tid);
    finish_chunk(tid);
  };
  const bool timed = options_.record_task_costs;

  // Appends one task's density-screen survivors to buf.kets and returns
  // the end of its Schwarz-live ket range. Kets in [ket_begin, live) pass
  // the Schwarz bound; the rest of the task's range fails it (pairs are
  // sorted by descending q) and is counted as screened without a visit.
  // Survivors are collected in ascending ket order, whichever source
  // proposed them.
  const auto screen_task = [&](const QuartetTask& task, std::size_t tid,
                               StreamBuffers& buf) {
    const ShellPair& bra = pairs_[task.bra];
    const std::size_t live = std::clamp<std::size_t>(
        pairs_.live_end(task.bra, eps), task.ket_begin, task.ket_end);
    const auto screen = [&](std::uint32_t kk) {
      if (density_screening) {
        const ShellPair& ket = pairs_[kk];
        const double xbound = exchange_density_bound(block_max, bra.sa, bra.sb,
                                                     ket.sa, ket.sb);
        const double pmax =
            want_coulomb ? std::max(xbound, std::max(block_max(bra.sa, bra.sb),
                                                     block_max(ket.sa, ket.sb)))
                         : xbound;
        if (bra.q * ket.q * pmax < eps) return;
      }
      buf.kets.push_back(kk);
    };
    if (walk) {
      walk->candidates(task.bra, live, walk_scratch[tid], buf.candidates);
      for (const std::uint32_t kk : buf.candidates) screen(kk);
    } else {
      for (std::uint32_t kk = task.ket_begin; kk < live; ++kk) screen(kk);
    }
    return live;
  };

  // Opens the group at task `first` on thread `tid` and evaluates it.
  const auto evaluate_group = [&](std::size_t first, std::size_t tid) {
    StreamGroup& g = groups[tid];
    StreamBuffers& buf = stream_buffers;
    g.evaluated = false;
    g.first = first;
    g.slices.clear();
    buf.kets.clear();
    buf.stream.clear();
    for (std::size_t t = first;
         t < g.run_end && buf.kets.size() < kStreamGroupQuartets; ++t) {
      const obs::Stopwatch watch;
      Slice slice;
      slice.begin = buf.kets.size();
      slice.live = screen_task(tasks_[t], tid, buf);
      slice.end = buf.kets.size();
      const ints::ShellPairHermite* bra = &*pair_hermites_[tasks_[t].bra];
      for (std::size_t k = slice.begin; k < slice.end; ++k)
        buf.stream.push_back({bra, &*pair_hermites_[buf.kets[k]]});
      if (timed) slice.screen_seconds = watch.seconds();
      g.slices.push_back(slice);
    }
    const std::size_t n = buf.stream.size();
    if (buf.blocks.size() < n) buf.blocks.resize(n);
    if (timed) buf.seconds.resize(n);
    g.batches = ints::eri_shell_quartet_batched(
        {buf.stream.data(), n}, buf.blocks.data(),
        timed ? buf.seconds.data() : nullptr);
    g.evaluated = true;
  };

  // Digests one task's slice of its thread's evaluated group into `acc`.
  const auto digest_slice = [&](const QuartetTask& task, const Slice& slice,
                                JkPartial& acc) {
    const StreamBuffers& buf = stream_buffers;
    const ShellPair& bra = pairs_[task.bra];
    for (std::size_t k = slice.begin; k < slice.end; ++k) {
      const ShellPair& ket = pairs_[buf.kets[k]];
      digest_quartet(*basis_, bra.sa, bra.sb, ket.sa, ket.sb, buf.blocks[k],
                     density, want_coulomb ? &acc.j : nullptr, acc.k,
                     /*braket_same=*/buf.kets[k] == task.bra,
                     eps_contribution);
    }
  };

  auto run_task = [&](std::size_t task_index, std::size_t tid) {
    bool poison = false;
    if (injector_) {
      const std::uint32_t attempt = attempt_counts[task_index]++;
      const std::uint64_t site =
          (epoch << 40) | static_cast<std::uint64_t>(task_index);
      // Throws InjectedFault on kFail, sleeps on kStall, returns true on
      // kCorrupt (poison applied to the digested output below).
      poison = injector_->apply(site, attempt);
    }
    const QuartetTask& task = tasks_[task_index];
    StreamGroup& group = groups[tid];
    while (task_index >= chunk_end_[chunk[tid]]) next_chunk(tid);
    JkPartial& acc = open[tid];
    if (transactional) saved[tid] = acc;
    const obs::Stopwatch watch;
    double digest_seconds = 0.0;
    try {
      if (!group.holds(task_index)) evaluate_group(task_index, tid);
      const obs::Stopwatch digest_watch;
      digest_slice(task, group.slices[task_index - group.first], acc);
      if (timed) digest_seconds = digest_watch.seconds();
      // A kCorrupt fault models silent data corruption in the task's
      // output. With validation on, the isfinite sweep catches it and the
      // retry path heals it; with validation off it lands in K, which is
      // exactly the hazard validate_tasks exists to close.
      if (poison) acc.k(0, 0) = std::numeric_limits<double>::quiet_NaN();
      if (transactional && !(all_finite(acc.k) && all_finite(acc.j)))
        throw std::runtime_error("hfx: non-finite task output (task " +
                                 std::to_string(task_index) + ")");
    } catch (...) {
      if (transactional) std::swap(acc, saved[tid]);
      throw;
    }
    // Tallies, timing, and cost records flush only on this success path;
    // a throw above leaves them untouched so retries never double-count.
    // The group's batches go to the first of its tasks to finish.
    const Slice& slice = group.slices[task_index - group.first];
    const std::size_t computed = slice.end - slice.begin;
    busy_timer.add_seconds(tid, watch.seconds());
    c_considered.add(tid, task.ket_end - task.ket_begin);
    c_schwarz.add(tid, task.ket_end - slice.live);
    c_density.add(tid, slice.live - task.ket_begin - computed);
    c_computed.add(tid, computed);
    c_batches.add(tid, std::exchange(group.batches, 0));
    if (timed) {
      // Seconds this task cost: its quartets' kernel shares plus its own
      // screening and digestion, wherever its group was evaluated.
      double secs = slice.screen_seconds + digest_seconds;
      for (std::size_t k = slice.begin; k < slice.end; ++k)
        secs += stream_buffers.seconds[k];
      result.stats.task_costs[task_index] = {
          static_cast<std::uint32_t>(task_index), task.est_cost, secs};
    }
  };

  const std::uint64_t pre_failures = injector_ ? injector_->failures() : 0;
  const std::uint64_t pre_stalls = injector_ ? injector_->stalls() : 0;
  const std::uint64_t pre_corruptions =
      injector_ ? injector_->corruptions() : 0;
  {
    obs::Trace::Scope task_span(obs::global_trace(), "jk.tasks");
    obs::ScopedTimer wall(registry.timer("hfx.wall_seconds"), 0);
    execute_tasks(pool_, runs, options_.schedule, run_task, &registry,
                  RetryOptions{.max_retries = options_.fault.max_retries});
  }
  std::optional<JkPartial> total = merge.take();
  if (!total) total = zero_partial();
  result.k = std::move(total->k);
  linalg::symmetrize(result.k);
  if (want_coulomb) {
    result.j = std::move(total->j);
    linalg::symmetrize(result.j);
  }

  result.stats.screening.quartets_considered =
      registry.counter_total("hfx.quartets_considered");
  result.stats.screening.quartets_schwarz_screened =
      registry.counter_total("hfx.quartets_schwarz_screened");
  result.stats.screening.quartets_density_screened =
      registry.counter_total("hfx.quartets_density_screened");
  result.stats.screening.quartets_computed =
      registry.counter_total("hfx.quartets_computed");
  result.stats.kernel_batches = registry.counter_total("hfx.kernel_batches");
  result.stats.wall_seconds = registry.timer_seconds("hfx.wall_seconds");
  result.stats.reduce_seconds = registry.timer_seconds("hfx.reduce_seconds");
  result.stats.thread_busy_seconds =
      registry.timer_per_thread("hfx.task_seconds");
  result.stats.fault.retries = registry.counter_total("fault.retries");
  result.stats.fault.permanent_failures =
      registry.counter_total("fault.permanent_failures");
  if (injector_) {
    result.stats.fault.injected_failures = injector_->failures() - pre_failures;
    result.stats.fault.injected_stalls = injector_->stalls() - pre_stalls;
    result.stats.fault.injected_corruptions =
        injector_->corruptions() - pre_corruptions;
    result.stats.fault.injected = result.stats.fault.injected_failures +
                                  result.stats.fault.injected_stalls +
                                  result.stats.fault.injected_corruptions;
    registry.counter("fault.injected").add(0, result.stats.fault.injected);
  }
  result.stats.metrics = registry.to_json();
  return result;
}

}  // namespace mthfx::hfx
