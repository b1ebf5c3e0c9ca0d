// A7 — ERI kernel microbenchmark: quartet throughput by L-class for the
// batched SIMD kernel (compacted ShellPairHermite E-lists, the one
// production kernel) against the dense reference oracle
// (testing::dense_reference_quartet), which builds its own dense pair
// boxes from the same shells with ints::HermiteE/HermiteR. Both columns
// are cross-checked element by element.
//
// Workloads replicate each shell at several jittered centers, the way a
// molecular row repeats the same contraction pattern across atoms —
// that is what gives the batched kernel full-width (8-lane) batches;
// a stream of all-distinct structures would degenerate to width 1.
//
// Also records the reduce-phase scaling (hfx.reduce_seconds at 1 vs 8
// threads) for the row-blocked tree reduction.
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
};

constexpr LClass kClasses[] = {
    {"(ss|ss)", 0, 0, 0, 0}, {"(sp|sp)", 0, 1, 0, 1},
    {"(pp|pp)", 1, 1, 1, 1}, {"(dp|dp)", 2, 1, 2, 1},
    {"(dd|dd)", 2, 2, 2, 2},
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

// Cross-check a batched stream against the dense oracle; returns the
// worst element difference across all quartets.
double stream_agreement(const ClassWorkload& w,
                        const std::vector<ints::EriBlock>& batched) {
  double diff = 0.0;
  ints::EriBlock ref;
  for (std::size_t q = 0; q < w.stream.size(); ++q) {
    const std::size_t i = q / ClassWorkload::kReplicas;
    const std::size_t j = q % ClassWorkload::kReplicas;
    testing::dense_reference_quartet(w.dense_bras[i], w.dense_kets[j], ref);
    diff = std::max(diff, max_abs_diff(batched[q], ref));
  }
  return diff;
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
    std::vector<ints::EriBlock> batched(n);
    ints::eri_shell_quartet_batched({w.stream.data(), n}, batched.data());
    const double diff = stream_agreement(w, batched);
    if (diff > 1e-12) *agreement_ok = false;

    ints::EriBlock block;
    const double tb = seconds_for(
        [&] {
          ints::eri_shell_quartet_batched({w.stream.data(), n},
                                          batched.data());
        },
        sweeps);
    const double td = seconds_for(
        [&] {
          for (std::size_t i = 0; i < w.dense_bras.size(); ++i)
            for (std::size_t j = 0; j < w.dense_kets.size(); ++j)
              testing::dense_reference_quartet(w.dense_bras[i],
                                               w.dense_kets[j], block);
        },
        sweeps);
    const double total = static_cast<double>(n * sweeps);
    rows.push_back(make_row(cls.name, total, total / tb, total / td, diff));
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
  std::vector<ints::EriBlock> batched(n);
  ints::eri_shell_quartet_batched({stream.data(), n}, batched.data());
  double diff = 0.0;
  ints::EriBlock ref;
  for (std::size_t q = 0; q < n; ++q) {
    testing::dense_reference_quartet(dense[bra_of[q]], dense[ket_of[q]], ref);
    diff = std::max(diff, max_abs_diff(batched[q], ref));
  }
  if (diff > 1e-12) *agreement_ok = false;

  const int sweeps = smoke ? 3 : 60;
  ints::EriBlock block;
  const double tb = seconds_for(
      [&] { ints::eri_shell_quartet_batched({stream.data(), n},
                                            batched.data()); },
      sweeps);
  const double td = seconds_for(
      [&] {
        for (std::size_t q = 0; q < n; ++q)
          testing::dense_reference_quartet(dense[bra_of[q]], dense[ket_of[q]],
                                           block);
      },
      sweeps);
  const double total = static_cast<double>(n * sweeps);
  obs::Json row = make_row("mixed", total, total / tb, total / td, diff);
  row["class"] = "mixed s/p/d";
  return row;
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
