#include "scf/scf_loop.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "hfx/cell_list.hpp"
#include "ints/one_electron.hpp"
#include "linalg/eigen.hpp"
#include "linalg/purify.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"

namespace mthfx::scf {

using linalg::BlockPartition;
using linalg::BlockSparseMatrix;
using linalg::Matrix;

linalg::BlockPartition shell_aligned_partition(const chem::BasisSet& basis,
                                               std::size_t target_nbf) {
  if (target_nbf == 0) target_nbf = 1;
  std::vector<std::size_t> offsets{0};
  std::size_t filled = 0;
  for (std::size_t s = 0; s < basis.num_shells(); ++s) {
    filled += basis.shell(s).num_functions();
    if (filled >= target_nbf) {
      offsets.push_back(offsets.back() + filled);
      filled = 0;
    }
  }
  if (filled > 0) offsets.push_back(offsets.back() + filled);
  if (offsets.size() == 1) offsets.push_back(basis.num_functions());
  return BlockPartition(std::move(offsets));
}

namespace detail {

namespace {

// Gaussian-product gate for the T/V assembly: with μ_min the smallest
// product exponent of the pair, every primitive contribution carries
// exp(-μ R²) ≤ exp(-kOneElectronLogCut) ≈ 4e-18; even amplified by
// contraction/polynomial growth (~1e3) and the nuclear sum Σ_A Z_A/R
// (~1e4 at a thousand atoms) the dropped V elements sit below ~1e-11.
// Note this is a *distance* gate, not an overlap-magnitude gate: blocks
// like same-center s|p have exactly zero overlap by parity yet O(1)
// nuclear attraction, so |S| says nothing about |V|.
constexpr double kOneElectronLogCut = 40.0;

struct OneElectron {
  Matrix s, h;
  std::size_t candidates = 0;
};

// S and H = T + V assembled over cell-list candidate pairs only. The
// pairs never proposed are beyond summed extent radii, where every
// primitive product underflows the ERI kernel's own cutoff — the same
// argument the culled ERI pair list rests on.
OneElectron one_electron_culled(const chem::BasisSet& basis,
                                const chem::Molecule& mol) {
  const std::size_t nao = basis.num_functions();
  OneElectron out{Matrix(nao, nao), Matrix(nao, nao), 0};
  const hfx::CellList cells(basis, hfx::shell_extent_radii(basis));

  const auto scatter = [&](Matrix& m, const Matrix& block, std::size_t sa,
                           std::size_t sb) {
    const std::size_t oa = basis.first_function(sa);
    const std::size_t ob = basis.first_function(sb);
    for (std::size_t i = 0; i < block.rows(); ++i)
      for (std::size_t j = 0; j < block.cols(); ++j) {
        m(oa + i, ob + j) = block(i, j);
        m(ob + j, oa + i) = block(i, j);
      }
  };

  // Smallest primitive exponent per shell; μ = αβ/(α+β) is monotone in
  // both arguments, so the loosest product exponent of a pair is
  // min_a min_b / (min_a + min_b).
  std::vector<double> min_exp(basis.num_shells());
  for (std::size_t s = 0; s < basis.num_shells(); ++s) {
    double mn = basis.shell(s).exponents()[0];
    for (const double e : basis.shell(s).exponents()) mn = std::min(mn, e);
    min_exp[s] = mn;
  }

  std::vector<std::uint32_t> cand;
  for (std::size_t sa = 0; sa < basis.num_shells(); ++sa) {
    cand.clear();
    cells.candidates(sa, &cand);
    out.candidates += cand.size();
    for (const std::uint32_t sb : cand) {
      const Matrix sblock = ints::overlap_block(basis.shell(sa),
                                                basis.shell(sb));
      scatter(out.s, sblock, sa, sb);
      const double r = chem::distance(basis.shell(sa).center(),
                                      basis.shell(sb).center());
      const double mu_min = min_exp[sa] * min_exp[sb] /
                            (min_exp[sa] + min_exp[sb]);
      if (mu_min * r * r > kOneElectronLogCut) continue;
      Matrix hblock = ints::kinetic_block(basis.shell(sa), basis.shell(sb));
      hblock += ints::nuclear_block(basis.shell(sa), basis.shell(sb), mol);
      scatter(out.h, hblock, sa, sb);
    }
  }
  return out;
}

// <S^2> = Sz(Sz+1) + N_b - sum_{i in a, j in b} |(C_a^T S C_b)_ij|^2.
double s_squared_expectation(const Matrix& ca, const Matrix& cb,
                             const Matrix& s, std::size_t na, std::size_t nb) {
  const double sz = 0.5 * (static_cast<double>(na) - static_cast<double>(nb));
  double overlap2 = 0.0;
  const Matrix sab = linalg::matmul(linalg::matmul(linalg::transpose(ca), s), cb);
  for (std::size_t i = 0; i < na; ++i)
    for (std::size_t j = 0; j < nb; ++j) overlap2 += sab(i, j) * sab(i, j);
  return sz * (sz + 1.0) + static_cast<double>(nb) - overlap2;
}

std::vector<Matrix> history_copy(const std::deque<Matrix>& history) {
  return {history.begin(), history.end()};
}

void take(Channel& ch, OrbitalSolution&& sol) {
  ch.p = std::move(sol.density);
  ch.c = std::move(sol.coefficients);
  ch.eps = std::move(sol.orbital_energies);
}

class DiagonalizeStep final : public DensityStep {
 public:
  DiagonalizeStep(const chem::Molecule& mol, const chem::BasisSet& basis,
                  const hfx::HfxOptions& hfx, const hfx::FockBuilder* shared,
                  const char* method) {
    s_ = ints::overlap(basis);
    x_ = linalg::inverse_sqrt(s_);
    h_ = ints::core_hamiltonian(basis, mol);
    bind_builder(basis, hfx, shared, method);
  }

  Matrix error(const Matrix& f, const Matrix& p) override {
    const Matrix fps = linalg::matmul(linalg::matmul(f, p), s_);
    return linalg::matmul(
        linalg::matmul(linalg::transpose(x_), fps - linalg::transpose(fps)),
        x_);
  }

  OrbitalSolution update(const Matrix& f, std::size_t nocc,
                         double occupation) override {
    return solve_orbitals(f, x_, nocc, occupation);
  }

 private:
  Matrix x_;
};

class PurifyStep final : public DensityStep {
 public:
  PurifyStep(const chem::Molecule& mol, const chem::BasisSet& basis,
             const ScfOptions& options, SparseScfInfo& info)
      : info_(info),
        partition_(
            shell_aligned_partition(basis, options.hfx.sparsity.block_nbf)),
        drop_tol_(options.hfx.sparsity.drop_tol) {
    info_.nbf = basis.num_functions();

    // One-electron matrices over cell-list candidates.
    const obs::Stopwatch oe_watch;
    OneElectron oe = one_electron_culled(basis, mol);
    info_.one_electron_seconds = oe_watch.seconds();
    info_.pair_candidates = oe.candidates;
    s_ = std::move(oe.s);
    h_ = std::move(oe.h);

    // Pair list + Hermite tables. The sparsity options route the builder
    // to the density-linked ket walk.
    const obs::Stopwatch setup_watch;
    bind_builder(basis, options.hfx, options.shared_builder, "sparse_rhf");
    info_.num_pairs = builder_->pairs().size();
    info_.setup_seconds = setup_watch.seconds();

    // S^{-1/2} without an eigensolver.
    s_blk_ = blocked(s_);
    auto ns = linalg::inverse_sqrt_ns(s_blk_, drop_tol_);
    if (!ns.converged)
      throw std::runtime_error(
          "sparse_rhf: Newton-Schulz S^{-1/2} did not converge (residual " +
          std::to_string(ns.residual) + ")");
    x_blk_ = std::move(ns.inverse_sqrt);
    info_.ns_iterations = ns.iterations;
    info_.ns_residual = ns.residual;
  }

  bool has_orbitals() const override { return false; }

  hfx::JkResult coulomb_exchange(const Matrix& density) override {
    hfx::JkResult jk = builder_->coulomb_exchange_blocked(blocked(density));
    info_.jk_seconds_total += jk.stats.wall_seconds;
    return jk;
  }

  // F P S - S P F through blocked multiplies — the dense commutator would
  // be three O(nao³) matmuls.
  Matrix error(const Matrix& f, const Matrix& p) override {
    const BlockSparseMatrix f_blk = blocked(f);
    info_.fock_nnz = f_blk.nnz_fraction();
    const BlockSparseMatrix fps = linalg::multiply(
        linalg::multiply(f_blk, blocked(p), drop_tol_), s_blk_, drop_tol_);
    const Matrix fps_dense = fps.to_dense();
    return fps_dense - linalg::transpose(fps_dense);
  }

  // Orthonormal-basis density from F via TC2; the AO-basis density is
  // occupation · X P' X.
  OrbitalSolution update(const Matrix& f, std::size_t nocc,
                         double occupation) override {
    const BlockSparseMatrix f_ortho = linalg::multiply(
        linalg::multiply(x_blk_, blocked(f), drop_tol_), x_blk_, drop_tol_);
    linalg::PurifyStats stats;
    const BlockSparseMatrix p_ortho =
        linalg::tc2_density(f_ortho, nocc, drop_tol_, &stats);
    if (!stats.converged)
      throw std::runtime_error("sparse_rhf: TC2 purification did not converge");
    info_.last_tc2_iterations = stats.iterations;
    BlockSparseMatrix p_ao = linalg::multiply(
        linalg::multiply(x_blk_, p_ortho, drop_tol_), x_blk_, drop_tol_);
    p_ao.scale(occupation);
    info_.density_nnz = p_ao.nnz_fraction();
    OrbitalSolution out;
    out.density = p_ao.to_dense();
    return out;
  }

  // S - S P S through blocked multiplies, like every product above.
  Matrix level_shift_term(const Matrix& p) override {
    const BlockSparseMatrix sps = linalg::multiply(
        linalg::multiply(s_blk_, blocked(p), drop_tol_), s_blk_, drop_tol_);
    return s_ - sps.to_dense();
  }

 private:
  BlockSparseMatrix blocked(const Matrix& m) const {
    return BlockSparseMatrix::from_dense(m, partition_, drop_tol_);
  }

  SparseScfInfo& info_;
  BlockPartition partition_;
  double drop_tol_;
  BlockSparseMatrix s_blk_, x_blk_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Density steps.

void DensityStep::bind_builder(const chem::BasisSet& basis,
                               const hfx::HfxOptions& hfx,
                               const hfx::FockBuilder* shared,
                               const char* method) {
  if (shared && &shared->basis() != &basis)
    throw std::invalid_argument(
        std::string(method) +
        ": shared_builder is bound to a different basis object");
  if (!shared) own_builder_.emplace(basis, hfx);
  builder_ = shared ? shared : &*own_builder_;
}

std::unique_ptr<DensityStep> diagonalize_step(const chem::Molecule& mol,
                                              const chem::BasisSet& basis,
                                              const hfx::HfxOptions& hfx,
                                              const hfx::FockBuilder* shared,
                                              const char* method) {
  return std::make_unique<DiagonalizeStep>(mol, basis, hfx, shared, method);
}

std::unique_ptr<DensityStep> purify_step(const chem::Molecule& mol,
                                         const chem::BasisSet& basis,
                                         const ScfOptions& options,
                                         SparseScfInfo& info) {
  return std::make_unique<PurifyStep>(mol, basis, options, info);
}

// ---------------------------------------------------------------------------
// The loop.

LoopResult run_scf(const LoopSpec& spec, const ScfOptions& options,
                   DensityStep& step) {
  const std::string method = spec.method;
  const std::size_t nch = spec.nocc.size();
  const double occupation = nch == 1 ? 2.0 : 1.0;
  const Matrix& h = step.core_hamiltonian();
  if (spec.guess.size() != nch)
    throw std::invalid_argument(method + ": one guess density per channel");

  std::vector<Channel> ch(nch);
  for (std::size_t c = 0; c < nch; ++c) {
    ch[c].nocc = spec.nocc[c];
    const Matrix& p0 = spec.guess[c];
    if (p0.rows() != h.rows() || p0.cols() != h.cols())
      throw std::invalid_argument(method +
                                  ": initial_density dimension mismatch");
    ch[c].p = p0;
  }

  // Endgame switch for incremental Fock: once the solve is near
  // convergence, accumulated screening error from the ΔP builds floors
  // |dE| around the eps_schwarz noise scale, so the strict energy test
  // can only be trusted across consecutive *full* builds. Once the DIIS
  // error is inside its tolerance this turns sticky-true and every
  // remaining build is a full one; convergence is then declared from
  // noise-free deltas, and the reported energy comes from a full build
  // rather than a drifted incremental sum.
  bool force_full = false;
  double e_prev = 0.0;
  std::size_t start_iter = 0;
  if (options.resume) {
    const fault::ScfCheckpoint& ckpt = *options.resume;
    if (ckpt.method != method)
      throw std::invalid_argument(method + ": checkpoint is for method '" +
                                  ckpt.method + "'");
    start_iter = ckpt.iteration;
    e_prev = ckpt.energy;
    force_full = ckpt.force_full_builds;
    ch[0].p = ckpt.density;
    ch[0].p_built = ckpt.density_prev;
    ch[0].j = ckpt.j;
    ch[0].k = ckpt.k;
    ch[0].diis.restore_history(ckpt.diis_focks, ckpt.diis_errors);
    if (nch == 2) {
      ch[1].p = ckpt.density_beta;
      ch[1].diis.restore_history(ckpt.diis_focks_beta, ckpt.diis_errors_beta);
    }
  }

  RecoveryLadder ladder(options.recovery);
  LoopResult result;
  ScfResult& out = result.scf;
  out.nuclear_repulsion = spec.nuclear_repulsion;
  std::vector<Matrix> last_good(nch);  // restart point after a non-finite
  for (std::size_t c = 0; c < nch; ++c) last_good[c] = ch[c].p;
  struct {
    double e1 = 0.0, ej = 0.0, ek = 0.0, exc = 0.0, ndens = 0.0;
  } last;

  for (std::size_t iter = start_iter; iter < options.max_iterations; ++iter) {
    if (options.cancel) options.cancel->check();
    const obs::Trace::Scope iter_span(obs::global_trace(), "scf.iteration");
    const obs::Stopwatch iter_watch;
    ScfIterationLog log_entry;

    const bool full_build = !spec.incremental || ch[0].p_built.empty() ||
                            force_full ||
                            (iter % options.full_rebuild_every == 0);
    for (Channel& c : ch) {
      hfx::JkResult jk = full_build ? step.coulomb_exchange(c.p)
                                    : step.coulomb_exchange(c.p - c.p_built);
      if (full_build) {
        c.j = std::move(jk.j);
        c.k = std::move(jk.k);
      } else {
        c.j += jk.j;
        c.k += jk.k;
      }
      if (spec.incremental) c.p_built = c.p;
      log_entry.quartets_computed += jk.stats.screening.quartets_computed;
      log_entry.jk_seconds += jk.stats.wall_seconds;
    }

    // Spin sums; one channel's own P and J are the totals, uncopied.
    const Matrix p_sum = nch == 2 ? ch[0].p + ch[1].p : Matrix();
    const Matrix j_sum = nch == 2 ? ch[0].j + ch[1].j : Matrix();
    const Matrix& p_total = nch == 2 ? p_sum : ch[0].p;
    const Matrix& j_total = nch == 2 ? j_sum : ch[0].j;
    double k_trace = 0.0;
    for (const Channel& c : ch) k_trace += linalg::trace_product(c.p, c.k);
    XcTerm xc;
    if (spec.xc) xc = spec.xc(ch);

    // Energy from the matrices of this iteration's densities.
    const double e1 = linalg::trace_product(p_total, h);
    const double ej = 0.5 * linalg::trace_product(p_total, j_total);
    const double ek = -0.5 * spec.ax / occupation * k_trace;
    const double energy = e1 + ej + ek + xc.energy + spec.nuclear_repulsion;

    std::vector<Matrix> f(nch), err(nch);
    double err_norm = 0.0;
    for (std::size_t c = 0; c < nch; ++c) {
      f[c] = h + j_total;
      if (spec.ax != 0.0) f[c] -= (spec.ax / occupation) * ch[c].k;
      if (spec.xc) f[c] += xc.v[c];
      err[c] = step.error(f[c], ch[c].p);
      const double norm = linalg::max_abs(err[c]);
      err_norm = c == 0 ? norm : std::max(err_norm, norm);
    }
    const double delta_e = energy - e_prev;
    const bool finite = std::isfinite(energy) && std::isfinite(err_norm);

    ladder.observe(iter, energy, delta_e, err_norm);
    if (ladder.consume_diis_reset())
      for (Channel& c : ch) c.diis.reset();

    log_entry.energy = energy;
    log_entry.delta_e = delta_e;
    log_entry.diis_error = err_norm;
    log_entry.recovery_stage = static_cast<std::uint32_t>(ladder.stage());
    log_entry.seconds = iter_watch.seconds();
    out.log.push_back(log_entry);

    if (!finite) {
      out.diagnostics.finite = false;
      if (ladder.exhausted()) {
        out.diagnostics.failure_reason =
            "non-finite energy with recovery ladder exhausted";
        break;
      }
      // Restart from the last healthy density with the newly escalated
      // mitigation engaged; drop incremental state (J/K are tainted).
      for (std::size_t c = 0; c < nch; ++c) {
        ch[c].p = last_good[c];
        ch[c].p_built = Matrix();
      }
      continue;
    }
    for (std::size_t c = 0; c < nch; ++c) last_good[c] = ch[c].p;
    last = {e1, ej, ek, xc.energy, xc.integrated_density};

    const bool e_converged =
        iter > 0 && std::abs(energy - e_prev) < options.energy_tolerance;
    const bool d_converged = err_norm < options.diis_tolerance;
    e_prev = energy;
    if (!force_full && spec.incremental && d_converged) force_full = true;

    if (e_converged && d_converged && full_build) {
      out.converged = true;
      // Final orbitals from the plain Fock of the converged density.
      if (step.has_orbitals())
        for (std::size_t c = 0; c < nch; ++c) {
          OrbitalSolution sol = step.update(f[c], ch[c].nocc, occupation);
          ch[c].c = std::move(sol.coefficients);
          ch[c].eps = std::move(sol.orbital_energies);
        }
      break;
    }

    // DIIS (a non-finite pair never gets here to poison the history); the
    // extrapolated Fock replaces the plain one. Spin channels share one
    // set of coefficients: extrapolated apart, they amplify noise and can
    // settle on a higher stationary point or none.
    if (options.use_diis) {
      std::vector<linalg::Diis*> diis(nch);
      for (std::size_t c = 0; c < nch; ++c) diis[c] = &ch[c].diis;
      linalg::Diis::extrapolate_jointly(diis, f, err);
    }
    out.log.back().seconds = iter_watch.seconds();

    // Mitigations shape the step to the next density: a level shift
    // pushes virtuals up before the solve, damping mixes the previous
    // density into the new one. Configured (UhfOptions) and ladder
    // mitigations compose; the stronger wins.
    const double shift = std::max(spec.level_shift, ladder.level_shift());
    const double configured_damping =
        spec.density_damping > 0.0 && err_norm > spec.damping_until
            ? spec.density_damping
            : 0.0;
    const double damping = std::max(configured_damping, ladder.damping());
    for (std::size_t c = 0; c < nch; ++c) {
      if (shift > 0.0) f[c] += shift * step.level_shift_term(ch[c].p);
      OrbitalSolution sol = step.update(f[c], ch[c].nocc, occupation);
      if (damping > 0.0)
        sol.density = (1.0 - damping) * sol.density + damping * ch[c].p;
      take(ch[c], std::move(sol));
    }

    if (options.checkpoint_sink && options.checkpoint_every > 0 &&
        (iter + 1) % options.checkpoint_every == 0) {
      fault::ScfCheckpoint ckpt;
      ckpt.method = method;
      ckpt.iteration = iter + 1;
      ckpt.energy = e_prev;
      ckpt.density = ch[0].p;
      ckpt.diis_focks = history_copy(ch[0].diis.fock_history());
      ckpt.diis_errors = history_copy(ch[0].diis.error_history());
      if (nch == 2) {
        ckpt.density_beta = ch[1].p;
        ckpt.diis_focks_beta = history_copy(ch[1].diis.fock_history());
        ckpt.diis_errors_beta = history_copy(ch[1].diis.error_history());
      }
      if (spec.incremental) {
        ckpt.density_prev = ch[0].p_built;
        ckpt.j = ch[0].j;
        ckpt.k = ch[0].k;
      }
      ckpt.force_full_builds = force_full;
      options.checkpoint_sink(ckpt);
    }
  }

  out.energy = e_prev;
  out.one_electron_energy = last.e1;
  out.coulomb_energy = last.ej;
  out.exchange_energy = last.ek;
  out.iterations = start_iter + out.log.size();  // one log row per iteration
  out.diagnostics.final_stage = ladder.stage();
  out.diagnostics.recovery_events = ladder.events();
  result.xc_energy = last.exc;
  result.integrated_density = last.ndens;
  if (nch == 2 && !ch[0].c.empty() && !ch[1].c.empty())
    result.s_squared = s_squared_expectation(ch[0].c, ch[1].c, step.overlap(),
                                             ch[0].nocc, ch[1].nocc);
  out.density = std::move(ch[0].p);
  out.coefficients = std::move(ch[0].c);
  out.orbital_energies = std::move(ch[0].eps);
  if (nch == 2)
    result.beta = {std::move(ch[1].c), std::move(ch[1].eps), std::move(ch[1].p)};
  return result;
}

}  // namespace detail
}  // namespace mthfx::scf
