// box_sparse — the large-box path no other workload reaches: scf::sparse_rhf
// (cell-list pair culling, density-linked blocked J/K, Newton–Schulz
// S^-1/2, TC2 purification, block-sparse algebra; no XC, no eigensolver)
// on a liquid water box, with A10's thresholds and A10's fragment guess,
// one HFX thread as in A10.
//
// Water rather than A10's propylene carbonate: a 2-molecule PC box takes
// ~9 s per solve and its fragment guess ~22 s on a 4-core host. The
// packing uses A10's fixed box seed and the run seed moves the whole box
// rigidly: packings drawn from different seeds converge in 5 or 6
// iterations, which swings the solve time by ~20% from seed to seed.

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "ints/one_electron.hpp"
#include "linalg/diis.hpp"
#include "linalg/purify.hpp"
#include "scf/rhf.hpp"
#include "scf/sparse_scf.hpp"
#include "suite.hpp"
#include "workload/geometries.hpp"
#include "workload/replicate.hpp"

namespace mthfx::bench_suite {
namespace {

constexpr double kWaterDensity = 1.0;  // g/cm³
constexpr std::uint64_t kBoxSeed = 11;  // A10's packing seed

/// A10's fragment guess: the unit's converged density tiled down the
/// diagonal (every copy in the box has the unit's orientation).
linalg::Matrix fragment_guess(const chem::Molecule& unit, int molecules,
                              std::size_t nbf) {
  const auto unit_basis = chem::BasisSet::build(unit, "sto-3g");
  scf::ScfOptions opts;
  opts.hfx.num_threads = 1;
  const auto r = scf::rhf(unit, unit_basis, opts);
  const std::size_t nu = unit_basis.num_functions();
  linalg::Matrix p(nbf, nbf);
  for (int m = 0; m < molecules; ++m) {
    const std::size_t off = static_cast<std::size_t>(m) * nu;
    for (std::size_t i = 0; i < nu; ++i)
      for (std::size_t j = 0; j < nu; ++j)
        p(off + i, off + j) = r.density(i, j);
  }
  return p;
}

/// The box moved by the run's rigid motion, its basis and A10's guess.
struct BoxInput {
  chem::Molecule box;
  std::unique_ptr<chem::BasisSet> basis;
  std::shared_ptr<const linalg::Matrix> guess;
};

BoxInput make_box(std::uint64_t seed, int molecules) {
  const RigidMotion motion = RigidMotion::from_seed(seed);
  const chem::Molecule unit = workload::water();
  BoxInput in;
  in.box = motion.apply(
      workload::box_of(unit, molecules, kWaterDensity, kBoxSeed));
  in.basis = std::make_unique<chem::BasisSet>(
      chem::BasisSet::build(in.box, "sto-3g"));
  in.guess = std::make_shared<linalg::Matrix>(fragment_guess(
      motion.apply(unit), molecules, in.basis->num_functions()));
  return in;
}

struct Solve {
  double seconds = 0.0;
  scf::ScfResult result;
  scf::SparseScfInfo info;
};

}  // namespace

Outcome run_box_sparse(const RunConfig& config) {
  Outcome out;
  const int molecules = config.smoke ? 2 : 8;
  const std::string key = "box_sparse.water" + std::to_string(molecules);

  scf::ScfOptions opts;
  opts.hfx.num_threads = 1;
  opts.hfx.sparsity.mode = hfx::SparsityMode::kBlocked;
  opts.hfx.eps_schwarz = 1e-6;
  opts.hfx.sparsity.drop_tol = 1e-8;
  opts.energy_tolerance = 1e-6;
  opts.diis_tolerance = 1e-3;
  opts.full_rebuild_every = 1000;

  const BoxInput input = make_box(config.seed, molecules);
  const chem::Molecule& box = input.box;
  const chem::BasisSet& basis = *input.basis;
  opts.initial_density = input.guess;

  LayerClock clock;
  Solve last;
  // One solve; with `traced` set it is a span and kept in `solves`.
  const auto solve_once = [&](LayerClock* traced, std::vector<Solve>* solves) {
    Solve solve;
    solve.seconds = timed(traced, "scf.sparse_rhf", [&] {
      solve.result = scf::sparse_rhf(box, basis, opts, &solve.info);
    });
    ++out.attempted;
    if (!solve.result.converged) ++out.failed;
    if (solves) solves->push_back(solve);
    last = std::move(solve);
    return last.seconds;
  };
  const auto untraced_solve = [&] { return solve_once(nullptr, nullptr); };

  run_window(config.warmup_s, untraced_solve);  // untimed warm-up
  if (!config.trace) {
    const auto times = run_window(config.seconds, untraced_solve);
    out.metric("time_to_solution_s", median(times));
    out.record_ops(times);
    out.metric("setup_s", median_setup_seconds([&] {
                 return make_box(config.seed, molecules);
               }));
  } else {
    const auto untraced = run_window(config.seconds / 2, untraced_solve);

    // Every solve repeats one input, so one J/K build at the converged
    // density gives the Fock matrix the replay rounds purify; its stats
    // give the blocked build's thread efficiency.
    using linalg::BlockSparseMatrix;
    const double drop = opts.hfx.sparsity.drop_tol;
    const auto nocc = static_cast<std::size_t>(box.num_electrons() / 2);
    const linalg::BlockPartition part =
        scf::shell_aligned_partition(basis, opts.hfx.sparsity.block_nbf);
    const linalg::Matrix s = ints::overlap(basis);
    const BlockSparseMatrix s_blk =
        BlockSparseMatrix::from_dense(s, part, drop);
    const BlockSparseMatrix x =
        linalg::inverse_sqrt_ns(s_blk, drop).inverse_sqrt;
    const linalg::Matrix p = last.result.density;
    const hfx::JkResult jkr =
        hfx::FockBuilder(basis, opts.hfx)
            .coulomb_exchange_blocked(
                BlockSparseMatrix::from_dense(p, part, drop));
    const linalg::Matrix f =
        ints::core_hamiltonian(basis, box) + jkr.j - 0.5 * jkr.k;
    linalg::Diis diis;
    // One replay round of the calls a solve makes besides one-electron
    // assembly, builder set-up and J/K (which SparseScfInfo times).
    const auto replay_round = [&] {
      clock.span("linalg.newton_schulz",
                 [&] { linalg::inverse_sqrt_ns(s_blk, drop); });
      clock.span("linalg.tc2", [&] {
        const BlockSparseMatrix f_ortho = linalg::multiply(
            linalg::multiply(x, BlockSparseMatrix::from_dense(f, part, drop),
                             drop),
            x, drop);
        BlockSparseMatrix p_ao = linalg::multiply(
            linalg::multiply(x, linalg::tc2_density(f_ortho, nocc, drop), drop),
            x, drop);
        p_ao.scale(2.0);
        p_ao.to_dense();
      });
      const auto diis_error = [&] {
        const linalg::Matrix fps =
            linalg::multiply(
                linalg::multiply(BlockSparseMatrix::from_dense(f, part, drop),
                                 BlockSparseMatrix::from_dense(p, part, drop),
                                 drop),
                s_blk, drop)
                .to_dense();
        return fps - linalg::transpose(fps);
      };
      prime_diis(diis, f, diis_error());
      clock.span("linalg.diis", [&] {
        const linalg::Matrix err = diis_error();
        linalg::max_abs(err);
        diis.extrapolate(f, err);
      });
    };
    std::vector<Solve> solves;
    const auto traced = run_window(
        config.seconds / 2, [&] { return solve_once(&clock, &solves); },
        replay_round);
    replay_round();
    const double e2e_s = sum(traced);

    double n = 0, iters = 0, tc2_calls = 0, one_electron = 0, setup = 0;
    double jk = 0, quartets = 0;
    for (const Solve& solve : solves) {
      n += 1;
      iters += static_cast<double>(solve.result.log.size());
      // The converged iteration returns before purifying.
      tc2_calls += static_cast<double>(solve.result.log.size()) -
                   (solve.result.converged ? 1.0 : 0.0);
      one_electron += solve.info.one_electron_seconds;
      setup += solve.info.setup_seconds;
      jk += solve.info.jk_seconds_total;
      for (const auto& row : solve.result.log)
        quartets += static_cast<double>(row.quartets_computed);
    }
    const double ns = clock.median("linalg.newton_schulz");
    const double tc2 = clock.median("linalg.tc2");
    const double diis_s = clock.median("linalg.diis");

    double busy = 0.0;
    for (const double b : jkr.stats.thread_busy_seconds) busy += b;
    const double capacity =
        jkr.stats.wall_seconds *
        static_cast<double>(jkr.stats.thread_busy_seconds.size());
    const double shells = static_cast<double>(basis.num_shells());
    const double layers =
        one_electron + setup + jk + n * ns + tc2_calls * tc2 + iters * diis_s;

    out.metric("scf.iterations", iters);
    out.metric("scf.solves", n);
    out.metric("scf.sparse_setup_s", setup);
    out.metric("hfx.blocked_jk_s", jk);
    out.metric("hfx.blocked_parallel_efficiency",
               capacity > 0 ? busy / capacity : 0.0);
    out.metric("hfx.pairs_kept_frac",
               static_cast<double>(last.info.num_pairs) /
                   (shells * (shells + 1) / 2));
    out.metric("hfx.blocked_quartets_computed", quartets);
    out.metric("linalg.newton_schulz_s", n * ns);
    out.metric("linalg.tc2_s", tc2_calls * tc2);
    out.metric("linalg.diis_s", iters * diis_s);
    out.metric("linalg.tc2_iterations", last.info.last_tc2_iterations);
    out.metric("linalg.ns_iterations", last.info.ns_iterations);
    out.metric("linalg.density_nnz", last.info.density_nnz);
    out.metric("linalg.fock_nnz", last.info.fock_nnz);
    out.metric("ints.one_electron_s", one_electron);
    out.metric("e2e_traced_s", e2e_s);
    out.metric("unattributed_s", e2e_s - layers);
    out.metric("unattributed_frac", (e2e_s - layers) / e2e_s);
    out.metric("trace_overhead_frac",
               median(traced) / median(untraced) - 1.0);
    out.spans = clock.to_json();
  }

  // A10's structural contract on the last solve, then the energy.
  const scf::SparseScfInfo& info = last.info;
  const double unscreened = static_cast<double>(
      basis.num_shells() * (basis.num_shells() + 1) / 2);
  std::uint64_t quartets = 0;
  for (const auto& row : last.result.log) quartets += row.quartets_computed;
  obs::Json structure = obs::Json::object();
  structure["num_pairs"] = info.num_pairs;
  structure["pair_candidates"] = info.pair_candidates;
  structure["unscreened_pairs"] = unscreened;
  structure["density_nnz"] = info.density_nnz;
  structure["fock_nnz"] = info.fock_nnz;
  structure["quartets_computed"] = quartets;
  out.check("a10_structure",
            std::isfinite(last.result.energy) && info.num_pairs > 0 &&
                info.pair_candidates >= info.num_pairs &&
                static_cast<double>(info.pair_candidates) <= unscreened &&
                info.density_nnz > 0.0 && info.density_nnz <= 1.0 &&
                info.fock_nnz > 0.0 && info.fock_nnz <= 1.0 &&
                info.jk_seconds_total > 0.0 && quartets > 0,
            std::move(structure));
  check_energy(out, config, key, last.result.energy);
  return out;
}

}  // namespace mthfx::bench_suite
