#pragma once

// Shared pieces of the repository benchmark (bench/suite): the run
// configuration, the outcome a workload reports, order statistics, the
// seeded rigid motion applied to every generated geometry, and the span
// recorder that traced runs use to time calls into each layer.
//
// The benchmark only calls public functions of the library and reads the
// counts its public result structs already return; it adds no
// instrumentation inside src/.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "chem/basis.hpp"
#include "chem/molecule.hpp"
#include "hfx/fock_builder.hpp"
#include "linalg/diis.hpp"
#include "linalg/matrix.hpp"
#include "obs/json.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "scf/rks.hpp"

namespace mthfx::bench_suite {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;    ///< measured window of one run
  bool trace = false;       ///< per-layer (traced) run instead of end-to-end
  bool smoke = false;       ///< toy sizes: checks wiring, not performance
  /// Untimed operations run before the window: the first seconds of a
  /// process run up to 40% slower on a shared 4-core host.
  double warmup_s = 2.0;
  std::size_t threads = 1;  ///< HFX thread cap, min(nproc, 4)
  obs::Json references;     ///< suite.json "references"
  std::string scratch;      ///< directory for files a workload writes
};

/// What one workload run reports. Metric names must appear in
/// BENCHMARK.json; mthfx_bench attaches the units from there.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t hfx_threads = 1;  ///< HFX threads per solve or job
  std::vector<std::pair<std::string, double>> metrics;
  obs::Json checks = obs::Json::object();
  bool checks_ok = true;
  obs::Json detail = obs::Json::object();  ///< extra evidence for the record
  obs::Json spans;  ///< the benchmark's spans of a traced run

  void metric(const std::string& name, double value);
  /// Keep the per-operation times in the record (diagnostics only).
  void record_ops(const std::vector<double>& op_times);
  /// Record one correctness check. A failed check also counts as a
  /// failed operation.
  void check(const std::string& name, bool ok, obs::Json evidence = {});
};

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double sum(const std::vector<double>& values);
double mean(const std::vector<double>& values);  ///< 0 for an empty sample

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

/// Proper rotation from the 24-element octahedral group plus a shift.
/// Lebedev grids and the Becke partition are symmetric under this group,
/// so a moved molecule costs the same SCF work and has the same energy as
/// the unmoved one up to rounding; that keeps run-to-run cost steady
/// while the seed still changes every coordinate.
struct RigidMotion {
  int perm[3] = {0, 1, 2};
  double sign[3] = {1.0, 1.0, 1.0};
  chem::Vec3 shift{0, 0, 0};

  static RigidMotion from_seed(std::uint64_t seed);
  /// Rotates about the centre of mass, then shifts.
  chem::Molecule apply(const chem::Molecule& mol) const;
};

/// Reference energy check against suite.json: |E - ref| <= tolerance.
/// Returns false (and records why) when the key has no reference.
bool check_energy(Outcome& out, const RunConfig& config,
                  const std::string& key, double energy);

/// The benchmark's own spans (obs::Trace) around calls into a layer, with
/// every call's duration kept per span name. Traced runs replay each
/// layer's public calls in rounds between the measured operations, so
/// the replays see the same host conditions as the operations they stand
/// for (the host's speed drifts by ±15% within seconds).
class LayerClock {
 public:
  /// Times one call inside a span named `name`; returns its seconds.
  /// Thread-safe.
  double span(const std::string& name, const std::function<void()>& call);

  /// Median duration of the calls recorded under `name` (0 if none).
  double median(const std::string& name) const;

  obs::Json to_json() const { return trace_.to_json(); }

 private:
  obs::Trace trace_;
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> seconds_;  ///< guarded by mutex_
};

/// Seconds `call` takes; recorded as a span when `clock` is set.
double timed(LayerClock* clock, const std::string& name,
             const std::function<void()>& call);

/// Calls `op` until `window_s` has passed (at least once) and returns the
/// seconds each call reports; `between` runs untimed between calls.
std::vector<double> run_window(double window_s,
                               const std::function<double()>& op,
                               const std::function<void()>& between = {});

/// Median wall time of 9 calls of `make`. Workloads time their set-up
/// this way after the measured window, on throwaway state: the first
/// seconds of a process run up to 40% slower on a shared host. What
/// `make` returns is destroyed after its stopwatch stops, so tear-down is
/// not timed and one throwaway set-up lives at a time.
template <class Make>
double median_setup_seconds(const Make& make) {
  std::vector<double> seconds;
  for (int i = 0; i < 9; ++i) {
    const obs::Stopwatch watch;
    const auto made = make();
    seconds.push_back(watch.seconds());
  }
  return median(std::move(seconds));
}

/// One replay round of the public calls one scf::rks iteration and solve
/// make, at a converged density, recorded in `clock` under `prefix` +
/// ints.one_electron, linalg.inverse_sqrt, scf.guess, hfx.setup, dft.grid,
/// hfx.jk, dft.xc, linalg.solve_orbitals and linalg.diis. `diis` carries
/// the extrapolation history across rounds. Returns the J/K build stats.
hfx::HfxStats replay_rks_round(LayerClock& clock, const std::string& prefix,
                               const chem::Molecule& mol,
                               const chem::BasisSet& basis,
                               const scf::KsOptions& options,
                               const linalg::Matrix& density,
                               linalg::Diis& diis);

/// Fills `diis` to 7 pairs, so a timed extrapolation runs at the depth
/// an SCF reaches after a few iterations. The error matrices are made
/// linearly independent: a singular Pulay system drops history instead.
void prime_diis(linalg::Diis& diis, const linalg::Matrix& fock,
                const linalg::Matrix& error);

/// Counters of the HFX builds, weighted by how many builds each replay
/// stands for. Feeds the hfx.* per-layer metrics.
struct HfxTally {
  double builds = 0, busy = 0, capacity = 0, imbalance = 0, reduce = 0;
  double computed = 0, considered = 0;

  void add(const hfx::HfxStats& stats, double weight);
  void report(Outcome& out) const;
};

Outcome run_scf_screen(const RunConfig& config);
Outcome run_bomd_water(const RunConfig& config);
Outcome run_box_sparse(const RunConfig& config);
Outcome run_serve_open(const RunConfig& config);

}  // namespace mthfx::bench_suite
