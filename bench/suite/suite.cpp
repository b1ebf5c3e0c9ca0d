#include "suite.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "dft/grid.hpp"
#include "dft/xc_integrator.hpp"
#include "ints/one_electron.hpp"
#include "linalg/diis.hpp"
#include "linalg/eigen.hpp"
#include "obs/stopwatch.hpp"
#include "scf/guess.hpp"
#include "testing/rng.hpp"

namespace mthfx::bench_suite {

void Outcome::metric(const std::string& name, double value) {
  metrics.emplace_back(name, value);
}

void Outcome::record_ops(const std::vector<double>& op_times) {
  obs::Json list = obs::Json::array();
  for (const double t : op_times) list.push_back(t);
  detail["op_times"] = std::move(list);
}

void Outcome::check(const std::string& name, bool ok, obs::Json evidence) {
  obs::Json entry = obs::Json::object();
  entry["ok"] = ok;
  if (!evidence.is_null()) entry["evidence"] = std::move(evidence);
  checks[name] = std::move(entry);
  if (!ok) {
    checks_ok = false;
    ++failed;
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : sum(values) / static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

RigidMotion RigidMotion::from_seed(std::uint64_t seed) {
  testing::Rng rng(seed);
  RigidMotion m;
  // 6 axis permutations x 8 sign patterns = the 48-element full
  // octahedral group; keeping determinant +1 leaves the 24 rotations.
  static constexpr int kPerms[6][3] = {{0, 1, 2}, {1, 2, 0}, {2, 0, 1},
                                       {0, 2, 1}, {2, 1, 0}, {1, 0, 2}};
  const std::size_t p = rng.index(6);
  for (int i = 0; i < 3; ++i) m.perm[i] = kPerms[p][i];
  const bool odd_perm = p >= 3;
  m.sign[0] = rng.bernoulli(0.5) ? -1.0 : 1.0;
  m.sign[1] = rng.bernoulli(0.5) ? -1.0 : 1.0;
  // The last sign fixes the determinant to +1.
  m.sign[2] = m.sign[0] * m.sign[1] * (odd_perm ? -1.0 : 1.0);
  m.shift = {rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
             rng.uniform(-2.0, 2.0)};
  return m;
}

chem::Molecule RigidMotion::apply(const chem::Molecule& mol) const {
  const chem::Vec3 com = mol.center_of_mass();
  chem::Molecule out;
  out.set_charge(mol.charge());
  for (const chem::Atom& atom : mol.atoms()) {
    const chem::Vec3 d = atom.pos - com;
    chem::Vec3 r;
    for (std::size_t i = 0; i < 3; ++i)
      r[i] = sign[i] * d[static_cast<std::size_t>(perm[i])];
    out.add_atom(atom.z, com + r + shift);
  }
  return out;
}

bool check_energy(Outcome& out, const RunConfig& config,
                  const std::string& key, double energy) {
  obs::Json evidence = obs::Json::object();
  evidence["energy"] = energy;
  const obs::Json* ref = config.references.find(key);
  if (!ref || !ref->find("energy") || !ref->find("tolerance")) {
    evidence["error"] = "no reference for " + key;
    out.check("energy." + key, false, std::move(evidence));
    return false;
  }
  const double expected = ref->find("energy")->as_double();
  const double tolerance = ref->find("tolerance")->as_double();
  const double deviation = std::abs(energy - expected);
  evidence["reference"] = expected;
  evidence["tolerance"] = tolerance;
  evidence["deviation"] = deviation;
  const bool ok = std::isfinite(energy) && deviation <= tolerance;
  out.check("energy." + key, ok, std::move(evidence));
  return ok;
}

double LayerClock::span(const std::string& name,
                        const std::function<void()>& call) {
  const obs::Stopwatch watch;
  {
    const obs::Trace::Scope scope(trace_, name);
    call();
  }
  const double seconds = watch.seconds();
  const std::lock_guard<std::mutex> lock(mutex_);
  seconds_[name].push_back(seconds);
  return seconds;
}

double LayerClock::median(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = seconds_.find(name);
  return it == seconds_.end() ? 0.0 : bench_suite::median(it->second);
}

double timed(LayerClock* clock, const std::string& name,
             const std::function<void()>& call) {
  if (clock) return clock->span(name, call);
  const obs::Stopwatch watch;
  call();
  return watch.seconds();
}

std::vector<double> run_window(double window_s,
                               const std::function<double()>& op,
                               const std::function<void()>& between) {
  std::vector<double> seconds;
  const obs::Stopwatch window;
  while (seconds.empty() || window.seconds() < window_s) {
    if (between && !seconds.empty()) between();
    seconds.push_back(op());
  }
  return seconds;
}

hfx::HfxStats replay_rks_round(LayerClock& clock, const std::string& prefix,
                               const chem::Molecule& mol,
                               const chem::BasisSet& basis,
                               const scf::KsOptions& options,
                               const linalg::Matrix& density,
                               linalg::Diis& diis) {
  using linalg::Matrix;
  const dft::Functional functional = dft::make_functional(options.functional);
  const auto nocc = static_cast<std::size_t>(mol.num_electrons() / 2);

  Matrix s, h, x;
  clock.span(prefix + "ints.one_electron", [&] {
    s = ints::overlap(basis);
    h = ints::core_hamiltonian(basis, mol);
  });
  clock.span(prefix + "linalg.inverse_sqrt",
             [&] { x = linalg::inverse_sqrt(s); });
  clock.span(prefix + "scf.guess",
             [&] { scf::core_guess_density(basis, mol, x); });
  std::unique_ptr<hfx::FockBuilder> builder;
  clock.span(prefix + "hfx.setup", [&] {
    builder = std::make_unique<hfx::FockBuilder>(basis, options.scf.hfx);
  });
  std::unique_ptr<dft::MolecularGrid> grid;
  std::unique_ptr<dft::XcIntegrator> xc;
  clock.span(prefix + "dft.grid", [&] {
    grid = std::make_unique<dft::MolecularGrid>(mol, options.grid);
    xc = std::make_unique<dft::XcIntegrator>(basis, *grid);
  });
  hfx::JkResult jk;
  clock.span(prefix + "hfx.jk",
             [&] { jk = builder->coulomb_exchange(density); });
  dft::XcResult xres;
  clock.span(prefix + "dft.xc",
             [&] { xres = xc->integrate(functional, density); });

  Matrix f = h + jk.j;
  f -= (0.5 * functional.exact_exchange) * jk.k;
  f += xres.v;
  clock.span(prefix + "linalg.solve_orbitals",
             [&] { scf::solve_orbitals(f, x, nocc); });
  const auto diis_error = [&] {
    const Matrix fps = linalg::matmul(linalg::matmul(f, density), s);
    return linalg::matmul(
        linalg::matmul(linalg::transpose(x), fps - linalg::transpose(fps)), x);
  };
  prime_diis(diis, f, diis_error());
  clock.span(prefix + "linalg.diis", [&] {
    const Matrix err = diis_error();
    linalg::max_abs(err);
    diis.extrapolate(f, err);
  });
  return jk.stats;
}

void prime_diis(linalg::Diis& diis, const linalg::Matrix& fock,
                const linalg::Matrix& error) {
  for (std::size_t k = 0; diis.history_size() < 7 && k < 32; ++k) {
    linalg::Matrix e = error;
    e(k % e.rows(), k % e.cols()) += 1.0;
    diis.extrapolate(fock, e);
  }
}

void HfxTally::add(const hfx::HfxStats& stats, double weight) {
  double busy_one = 0.0;
  for (const double b : stats.thread_busy_seconds) busy_one += b;
  builds += weight;
  busy += weight * busy_one;
  capacity += weight * stats.wall_seconds *
              static_cast<double>(stats.thread_busy_seconds.size());
  imbalance += weight * stats.imbalance();
  reduce += weight * stats.reduce_seconds;
  computed += weight * static_cast<double>(stats.screening.quartets_computed);
  considered +=
      weight * static_cast<double>(stats.screening.quartets_considered);
}

void HfxTally::report(Outcome& out) const {
  out.metric("hfx.parallel_efficiency", capacity > 0 ? busy / capacity : 0.0);
  out.metric("hfx.imbalance", builds > 0 ? imbalance / builds : 0.0);
  out.metric("hfx.reduce_s", reduce);
  out.metric("hfx.screen_survival",
             considered > 0 ? computed / considered : 0.0);
  out.metric("hfx.quartets_per_busy_s", busy > 0 ? computed / busy : 0.0);
}

}  // namespace mthfx::bench_suite
