// A7 — ERI kernel microbenchmark: quartet throughput by L-class for the
// batched SIMD kernel (ShellPairHermite values in their class skeleton's
// layout, the one production kernel) against the dense reference oracle
// (testing::dense_reference_quartet), which builds its own dense pair
// boxes from the same shells with ints::HermiteE/HermiteR. Both columns
// are cross-checked element by element; the oracle's timed passes are
// few for the high-L classes, where one pass takes seconds, and its last
// pass is the agreement reference.
//
// Workloads replicate each shell at several jittered centers, the way a
// molecular row repeats the same contraction pattern across atoms, so
// the batched kernel runs full-width (8-lane) batches.
//
// Also records the J/K stream shapes (every Schwarz-live bra row of DMSO
// STO-3G, streamed one row per call and in the builder's stream groups:
// quartets/s and lanes per batch) and the reduce-phase scaling
// (hfx.reduce_seconds at 1 vs 8 threads) for the row-blocked tree
// reduction.
//
// `--smoke` runs the table with small iteration counts and exits nonzero
// on any batched/dense disagreement — the counts-only CI
// invocation in scripts/run_tests.sh. Without it, the table runs at full
// iteration counts, emits BENCH_hfx_kernel.json, and then hands off to
// google-benchmark for the registered timing loops.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ints/eri.hpp"
#include "ints/eri_batch.hpp"
#include "testing/oracles.hpp"

namespace {

using namespace mthfx;
using ints::ShellPairHermite;
using testing::DenseHermitePair;

// A small synthetic shell of the given angular momentum: 3 primitives
// with TZ-ish exponent spread, slightly off-center so no coordinate
// difference vanishes (the generic, not the special-case, code path).
chem::Shell make_shell(int l, chem::Vec3 center) {
  return chem::Shell(l, 0, center, {2.9, 0.81, 0.23}, {0.35, 0.55, 0.25});
}

// Deterministic per-replica center jitter: replicas share the pair's
// structural skeleton (same L, same primitive count) but carry distinct
// geometry, so SIMD lanes hold genuinely different values.
chem::Vec3 jitter(chem::Vec3 c, int i) {
  return {c.x + 0.17 * i, c.y - 0.11 * i, c.z + 0.23 * i};
}

struct LClass {
  const char* name;
  int la, lb, lc, ld;
  int dense_sweeps;  // the oracle's timed passes (about 1-2 s each class)
};

constexpr LClass kClasses[] = {
    {"(ss|ss)", 0, 0, 0, 0, 400}, {"(sp|sp)", 0, 1, 0, 1, 400},
    {"(pp|pp)", 1, 1, 1, 1, 40},  {"(dp|dp)", 2, 1, 2, 1, 4},
    {"(dd|dd)", 2, 2, 2, 2, 1},
};

// Per-class workload: kReplicas bra pairs x kReplicas ket pairs (all
// structurally identical, geometrically jittered) -> a stream of
// kReplicas^2 quartets that the batched kernel packs 8 wide.
struct ClassWorkload {
  static constexpr int kReplicas = 8;

  std::vector<ShellPairHermite> bras, kets;
  std::vector<DenseHermitePair> dense_bras, dense_kets;
  std::vector<ints::QuartetRef> stream;

  explicit ClassWorkload(const LClass& cls) {
    bras.reserve(kReplicas);
    kets.reserve(kReplicas);
    dense_bras.reserve(kReplicas);
    dense_kets.reserve(kReplicas);
    for (int i = 0; i < kReplicas; ++i) {
      const auto a = make_shell(cls.la, jitter({0.0, 0.0, 0.0}, i));
      const auto b = make_shell(cls.lb, jitter({0.3, -0.2, 0.9}, i));
      const auto c = make_shell(cls.lc, jitter({1.1, 0.7, -0.4}, i));
      const auto d = make_shell(cls.ld, jitter({-0.5, 1.3, 0.6}, i));
      bras.emplace_back(a, b);
      kets.emplace_back(c, d);
      dense_bras.emplace_back(a, b);
      dense_kets.emplace_back(c, d);
    }
    for (int i = 0; i < kReplicas; ++i)
      for (int j = 0; j < kReplicas; ++j)
        stream.push_back({&bras[i], &kets[j]});
  }
};

double seconds_for(const std::function<void()>& fn, int iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double max_abs_diff(const ints::EriBlock& a, const ints::EriBlock& b) {
  double mx = 0.0;
  for (std::size_t i = 0; i < a.values.size(); ++i)
    mx = std::max(mx, std::abs(a.values[i] - b.values[i]));
  return mx;
}

// Worst element difference between two block lists.
double max_abs_diff(const std::vector<ints::EriBlock>& a,
                    const std::vector<ints::EriBlock>& b) {
  double mx = 0.0;
  for (std::size_t q = 0; q < a.size(); ++q)
    mx = std::max(mx, max_abs_diff(a[q], b[q]));
  return mx;
}

obs::Json make_row(const char* name, double quartets, double qps_b,
                   double qps_d, double diff) {
  std::printf("%-10s %-9.0f %-13.3e %-13.3e %-8.2f %-10.2e\n", name,
              quartets, qps_b, qps_d, qps_b / qps_d, diff);
  obs::Json row = obs::Json::object();
  row["class"] = name;
  row["quartets"] = quartets;
  row["batched_quartets_per_second"] = qps_b;
  row["dense_quartets_per_second"] = qps_d;
  row["batched_speedup_vs_dense"] = qps_b / qps_d;
  row["max_abs_diff"] = diff;
  return row;
}

void print_table_header(const char* title) {
  bench::print_header(title);
  std::printf("%-10s %-9s %-13s %-13s %-8s %-10s\n", "class", "quartets",
              "batched q/s", "dense q/s", "b/d", "max|diff|");
  bench::print_rule();
}

obs::Json throughput_table(bool smoke, bool* agreement_ok) {
  print_table_header(
      "A7: ERI quartet throughput, batched SIMD vs. dense reference oracle "
      "(same shells)");

  obs::Json rows = obs::Json::array();
  const int sweeps = smoke ? 5 : 400;
  for (const LClass& cls : kClasses) {
    ClassWorkload w(cls);
    const std::size_t n = w.stream.size();
    std::vector<ints::EriBlock> batched(n), ref(n);
    const double tb = seconds_for(
        [&] {
          ints::eri_shell_quartet_batched({w.stream.data(), n},
                                          batched.data());
        },
        sweeps);
    const int dense_sweeps = smoke ? 1 : cls.dense_sweeps;
    const double td = seconds_for(
        [&] {
          for (std::size_t q = 0; q < n; ++q)
            testing::dense_reference_quartet(
                w.dense_bras[q / ClassWorkload::kReplicas],
                w.dense_kets[q % ClassWorkload::kReplicas], ref[q]);
        },
        dense_sweeps);
    const double diff = max_abs_diff(batched, ref);
    if (diff > 1e-12) *agreement_ok = false;
    const double total = static_cast<double>(n * sweeps);
    rows.push_back(make_row(cls.name, total, total / tb,
                            static_cast<double>(n * dense_sweeps) / td, diff));
  }
  return rows;
}

// Mixed s/p/d workload: four jittered copies each of an s, a p and a d
// shell — the shape of a real heavy-atom polarization basis row, with
// the shell multiplicity that gives the batch former same-structure
// runs to pack (12 shells -> 78 pairs -> 3081 bra>=ket quartets).
obs::Json mixed_workload(bool smoke, bool* agreement_ok) {
  std::vector<chem::Shell> shells;
  for (int i = 0; i < 4; ++i) {
    shells.push_back(make_shell(0, jitter({0.0, 0.0, 0.0}, i)));
    shells.push_back(make_shell(1, jitter({0.4, -0.3, 0.8}, i)));
    shells.push_back(make_shell(2, jitter({-0.7, 0.9, 0.2}, i)));
  }
  std::vector<ShellPairHermite> pairs;
  std::vector<DenseHermitePair> dense;
  for (std::size_t a = 0; a < shells.size(); ++a)
    for (std::size_t b = 0; b <= a; ++b) {
      pairs.emplace_back(shells[a], shells[b]);
      dense.emplace_back(shells[a], shells[b]);
    }
  std::vector<ints::QuartetRef> stream;
  std::vector<std::size_t> bra_of, ket_of;
  for (std::size_t bra = 0; bra < pairs.size(); ++bra)
    for (std::size_t ket = 0; ket <= bra; ++ket) {
      stream.push_back({&pairs[bra], &pairs[ket]});
      bra_of.push_back(bra);
      ket_of.push_back(ket);
    }

  const std::size_t n = stream.size();
  std::vector<ints::EriBlock> batched(n), ref(n);
  const int sweeps = smoke ? 3 : 60;
  const double tb = seconds_for(
      [&] { ints::eri_shell_quartet_batched({stream.data(), n},
                                            batched.data()); },
      sweeps);
  // One oracle pass (about 5 s): it is both the timing and the reference.
  const double td = seconds_for(
      [&] {
        for (std::size_t q = 0; q < n; ++q)
          testing::dense_reference_quartet(dense[bra_of[q]], dense[ket_of[q]],
                                           ref[q]);
      },
      1);
  const double diff = max_abs_diff(batched, ref);
  if (diff > 1e-12) *agreement_ok = false;
  const double total = static_cast<double>(n * sweeps);
  obs::Json row = make_row("mixed", total, total / tb,
                           static_cast<double>(n) / td, diff);
  row["class"] = "mixed s/p/d";
  return row;
}

// The J/K stream shapes on DMSO STO-3G at eps 1e-9 (no density screen):
// every Schwarz-live ket of every bra row, streamed one row per call
// (`jk_rows`, the shape before stream groups) and the way a builder on
// a pool of several threads groups them (`jk_chunks`: consecutive rows of
// one chunk of the builder's cut, closed at kStreamGroupQuartets
// quartets or the chunk's end; on one thread groups also span chunk
// ends). Lanes per batch = quartets / batches.
struct JkStreams {
  std::vector<ShellPairHermite> hermites;
  std::vector<std::vector<ints::QuartetRef>> rows, groups;
  std::size_t chunks = 0, quartets = 0;
};

JkStreams jk_streams(double eps) {
  const auto basis =
      chem::BasisSet::build(workload::by_name("dmso"), "sto-3g");
  hfx::HfxOptions opts;
  opts.eps_schwarz = eps;
  opts.num_threads = 1;
  const hfx::FockBuilder builder(basis, opts);  // its pairs and chunk cut
  const hfx::ShellPairList& pairs = builder.pairs();
  JkStreams s;
  s.hermites.reserve(pairs.size());
  for (const hfx::ShellPair& pr : pairs.pairs())
    s.hermites.emplace_back(basis.shell(pr.sa), basis.shell(pr.sb));
  s.rows.resize(pairs.size());
  for (std::size_t b = 0; b < pairs.size(); ++b) {
    for (std::size_t k = 0; k < pairs.live_end(b, eps); ++k)
      s.rows[b].push_back({&s.hermites[b], &s.hermites[k]});
    s.quartets += s.rows[b].size();
  }
  // Rows and tasks coincide at the default task grain.
  std::size_t b = 0;
  for (const std::size_t chunk_end : builder.task_chunk_ends()) {
    while (b < chunk_end) {
      std::vector<ints::QuartetRef>& group = s.groups.emplace_back();
      for (; b < chunk_end && group.size() < hfx::kStreamGroupQuartets; ++b)
        group.insert(group.end(), s.rows[b].begin(), s.rows[b].end());
    }
  }
  s.chunks = builder.task_chunk_ends().size();
  return s;
}

// Times one pass over `streams` (one kernel call each), `sweeps` times.
obs::Json time_streams(const char* unit,
                       const std::vector<std::vector<ints::QuartetRef>>& streams,
                       std::size_t quartets, int sweeps) {
  std::vector<ints::EriBlock> out;
  std::size_t batches = 0;
  const double t = seconds_for(
      [&] {
        batches = 0;
        for (const auto& stream : streams) {
          if (out.size() < stream.size()) out.resize(stream.size());
          batches += ints::eri_shell_quartet_batched(
              {stream.data(), stream.size()}, out.data());
        }
      },
      sweeps);
  const double qps = static_cast<double>(quartets * sweeps) / t;
  const double lanes =
      static_cast<double>(quartets) / static_cast<double>(batches);
  std::printf("%-8s %-8zu %-10zu %-10zu %-13.3e %-8.2f\n", unit,
              streams.size(), quartets, batches, qps, lanes);
  obs::Json row = obs::Json::object();
  row["species"] = "dmso";
  row["basis"] = "sto-3g";
  row[unit] = streams.size();
  row["quartets"] = quartets;
  row["batches"] = batches;
  row["lanes_per_batch"] = lanes;
  row["batched_quartets_per_second"] = qps;
  return row;
}

void jk_stream_rows(bool smoke, obs::Json& record) {
  bench::print_header(
      "A7: J/K streams, DMSO STO-3G, every Schwarz-live ket (eps 1e-9)");
  const double eps = 1e-9;
  const JkStreams s = jk_streams(eps);
  const int sweeps = smoke ? 1 : 20;
  std::printf("%-8s %-8s %-10s %-10s %-13s %-8s\n", "stream", "calls",
              "quartets", "batches", "batched q/s", "lanes");
  bench::print_rule();
  obs::Json rows = time_streams("rows", s.rows, s.quartets, sweeps);
  rows["eps_schwarz"] = eps;
  obs::Json chunks = time_streams("groups", s.groups, s.quartets, sweeps);
  chunks["eps_schwarz"] = eps;
  chunks["chunks"] = s.chunks;
  chunks["group_quartets"] = hfx::kStreamGroupQuartets;
  record["jk_rows"] = std::move(rows);
  record["jk_chunks"] = std::move(chunks);
}

// Reduce-phase scaling: hfx.reduce_seconds at 1 vs 8 threads for the
// same build. The row-blocked tree makes this flat-to-shrinking in
// thread count; the old serial sum grew linearly with it.
obs::Json reduce_scaling(bool smoke) {
  bench::print_header(
      "A7: K-accumulator reduction, hfx.reduce_seconds by thread count");
  const auto unit = workload::propylene_carbonate();
  const auto mol = smoke ? unit : workload::cluster_of(unit, 2, 9.0);
  const auto basis = chem::BasisSet::build(mol, "sto-3g");
  const auto s = ints::overlap(basis);
  const auto x = linalg::inverse_sqrt(s);
  const auto p = scf::core_guess_density(basis, mol, x);

  std::printf("%-10s %-16s %-16s\n", "threads", "reduce/s", "build wall/s");
  bench::print_rule();
  obs::Json rows = obs::Json::array();
  for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    hfx::HfxOptions opts;
    opts.eps_schwarz = 1e-8;
    opts.num_threads = threads;
    hfx::FockBuilder builder(basis, opts);
    auto r = builder.exchange(p);
    std::printf("%-10zu %-16.3e %-16.3e\n", threads, r.stats.reduce_seconds,
                r.stats.wall_seconds);
    obs::Json row = obs::Json::object();
    row["threads"] = threads;
    row["reduce_seconds"] = r.stats.reduce_seconds;
    row["wall_seconds"] = r.stats.wall_seconds;
    rows.push_back(std::move(row));
  }
  return rows;
}

// google-benchmark timing loops for the two kernels, for perf-tracking
// runs. The batched loop times a full-width 64-quartet stream and
// reports per-quartet time via items processed.
void BM_BatchedKernel(benchmark::State& state) {
  ClassWorkload w(kClasses[state.range(0)]);
  std::vector<ints::EriBlock> out(w.stream.size());
  for (auto _ : state) {
    ints::eri_shell_quartet_batched({w.stream.data(), w.stream.size()},
                                    out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.stream.size()));
}
BENCHMARK(BM_BatchedKernel)->DenseRange(0, 4)->Unit(benchmark::kMicrosecond);

void BM_DenseReferenceKernel(benchmark::State& state) {
  ClassWorkload w(kClasses[state.range(0)]);
  ints::EriBlock block;
  for (auto _ : state) {
    for (std::size_t i = 0; i < w.dense_bras.size(); ++i)
      for (std::size_t j = 0; j < w.dense_kets.size(); ++j)
        testing::dense_reference_quartet(w.dense_bras[i], w.dense_kets[j],
                                         block);
    benchmark::DoNotOptimize(block.values.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.stream.size()));
}
BENCHMARK(BM_DenseReferenceKernel)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  bool agreement_ok = true;
  obs::Json record = obs::Json::object();
  record["bench"] = "hfx_kernel";
  record["throughput_by_class"] = throughput_table(smoke, &agreement_ok);
  record["mixed_workload"] = mixed_workload(smoke, &agreement_ok);
  jk_stream_rows(smoke, record);
  record["reduce_scaling"] = reduce_scaling(smoke);
  if (!smoke) bench::write_bench_json("hfx_kernel", record);

  if (!agreement_ok) {
    std::fprintf(
        stderr,
        "A7: batched kernel disagrees with the dense oracle (> 1e-12)\n");
    return 1;
  }
  if (smoke) {
    std::printf("A7 smoke: batched kernel agrees with the oracle on every "
                "class.\n");
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
