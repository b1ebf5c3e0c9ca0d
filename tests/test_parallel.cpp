#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "parallel/reduce.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/work_stealing.hpp"

namespace obs = mthfx::obs;
namespace par = mthfx::parallel;

TEST(ResolveThreadCount, ExplicitRequestIsHonored) {
  EXPECT_EQ(par::resolve_thread_count(1), 1u);
  EXPECT_EQ(par::resolve_thread_count(7), 7u);
}

TEST(ResolveThreadCount, ZeroMeansHardwareConcurrency) {
  const std::size_t resolved = par::resolve_thread_count(0);
  EXPECT_GE(resolved, 1u);
  if (std::thread::hardware_concurrency() > 0)
    EXPECT_EQ(resolved, std::thread::hardware_concurrency());
}

TEST(ResolveThreadCount, PoolCtorUsesSamePolicy) {
  par::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), par::resolve_thread_count(0));
}

TEST(ThreadPool, SingleThreadExecutesAll) {
  par::ThreadPool pool(1);
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, 100, [&](std::size_t i, std::size_t) { hits[i]++; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

class PoolSchedules
    : public ::testing::TestWithParam<std::tuple<par::Schedule, std::size_t>> {
};

TEST_P(PoolSchedules, EveryIndexExecutedExactlyOnce) {
  const auto [schedule, nthreads] = GetParam();
  par::ThreadPool pool(nthreads);
  constexpr std::size_t n = 5000;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for(
      0, n, [&](std::size_t i, std::size_t) { hits[i].fetch_add(1); },
      schedule, 7);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PoolSchedules,
    ::testing::Combine(::testing::Values(par::Schedule::kDynamic,
                                         par::Schedule::kStatic,
                                         par::Schedule::kStaticCyclic),
                       ::testing::Values(1u, 2u, 4u, 8u)));

TEST(ThreadPool, ThreadIdsAreInRange) {
  par::ThreadPool pool(4);
  std::atomic<bool> ok{true};
  pool.parallel_for(0, 1000, [&](std::size_t, std::size_t tid) {
    if (tid >= pool.num_threads()) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  par::ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelRegionRunsOncePerThread) {
  par::ThreadPool pool(6);
  std::vector<std::atomic<int>> counts(6);
  pool.parallel_region([&](std::size_t tid) { counts[tid].fetch_add(1); });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyInvocations) {
  par::ThreadPool pool(3);
  std::atomic<std::size_t> total{0};
  for (int round = 0; round < 50; ++round)
    pool.parallel_for(0, 100,
                      [&](std::size_t, std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 5000u);
}

TEST(ThreadPool, ParallelRegionReusableAcrossManyInvocations) {
  par::ThreadPool pool(4);
  std::vector<std::atomic<int>> counts(4);
  for (int round = 0; round < 50; ++round)
    pool.parallel_region([&](std::size_t tid) { counts[tid].fetch_add(1); });
  for (auto& c : counts) EXPECT_EQ(c.load(), 50);
}

TEST(ThreadPool, RegistryInstrumentsRegions) {
  par::ThreadPool pool(3);
  obs::Registry reg(3);
  pool.parallel_region([](std::size_t) {}, &reg);
  pool.parallel_for(0, 10, [](std::size_t, std::size_t) {},
                    par::Schedule::kDynamic, 1, &reg);
  EXPECT_EQ(reg.counter_total("pool.regions"), 2u);
  // Every thread (including the calling thread as tid 0) is timed once
  // per region.
  EXPECT_EQ(reg.timer_count("pool.thread_seconds"), 6u);
  const auto per_thread = reg.timer_per_thread("pool.thread_seconds");
  ASSERT_EQ(per_thread.size(), 3u);
  for (double s : per_thread) EXPECT_GE(s, 0.0);

  // A region without a registry records nothing.
  pool.parallel_region([](std::size_t) {});
  EXPECT_EQ(reg.counter_total("pool.regions"), 2u);
}

TEST(ThreadPool, OverlappingCallersShareOnePool) {
  // Two threads drive regions on one pool at once (as two callers of one
  // const FockBuilder can); the regions serialise, and every index of
  // every loop runs exactly once.
  par::ThreadPool pool(3);
  constexpr std::size_t kRounds = 200, kN = 64;
  std::vector<std::vector<std::atomic<int>>> hits(2);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kRounds * kN);
  const auto drive = [&](std::size_t caller) {
    for (std::size_t round = 0; round < kRounds; ++round)
      pool.parallel_for(0, kN, [&](std::size_t i, std::size_t) {
        hits[caller][round * kN + i].fetch_add(1);
      });
  };
  std::thread a(drive, 0), b(drive, 1);
  a.join();
  b.join();
  for (std::size_t caller = 0; caller < 2; ++caller)
    for (std::size_t i = 0; i < kRounds * kN; ++i)
      ASSERT_EQ(hits[caller][i].load(), 1) << caller << " " << i;
}

TEST(WorkStealing, AllTasksExecutedOnce) {
  constexpr std::size_t nthreads = 4, ntasks = 10000;
  par::WorkStealingScheduler ws(nthreads);
  ws.seed(ntasks);
  std::vector<std::atomic<int>> hits(ntasks);
  par::ThreadPool pool(nthreads);
  pool.parallel_region([&](std::size_t tid) {
    while (auto t = ws.next(tid)) hits[*t].fetch_add(1);
  });
  for (std::size_t i = 0; i < ntasks; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(WorkStealing, StealsHappenUnderImbalance) {
  // All work seeded into deque 0; other threads must steal to finish.
  par::WorkStealingScheduler ws(4);
  for (int i = 0; i < 1000; ++i) {
    // seed() round-robins, so seed manually through a single-owner pattern:
  }
  ws.seed(4000);
  par::ThreadPool pool(4);
  std::atomic<std::size_t> done{0};
  pool.parallel_region([&](std::size_t tid) {
    while (auto t = ws.next(tid)) {
      // Thread 0 is made slow so others drain its share via steals.
      if (tid == 0)
        for (volatile int spin = 0; spin < 3000; ++spin) {
        }
      done.fetch_add(1);
    }
  });
  EXPECT_EQ(done.load(), 4000u);
  EXPECT_GT(ws.stats().steals_successful, 0u);
}

// Counter invariants must hold on BOTH steal paths (random victims and
// the deterministic fallback sweep): a successful steal is always also an
// attempted one, and tasks can only migrate through a successful steal.
// The regression here was the sweep path bumping tasks_migrated without
// counting its attempt.
TEST(WorkStealing, StealStatsAreConsistentUnderContention) {
  constexpr std::size_t nthreads = 4, ntasks = 8000;
  par::WorkStealingScheduler ws(nthreads);
  ws.seed(ntasks);
  par::ThreadPool pool(nthreads);
  std::atomic<std::size_t> done{0};
  pool.parallel_region([&](std::size_t tid) {
    while (auto t = ws.next(tid)) {
      // Uneven task costs force repeated stealing near the end of the
      // run, where the fallback sweep is most likely to serve steals.
      if (*t % nthreads == 0)
        for (volatile int spin = 0; spin < 500; ++spin) {
        }
      done.fetch_add(1);
    }
  });
  EXPECT_EQ(done.load(), ntasks);

  const auto total = ws.stats();
  EXPECT_LE(total.steals_successful, total.steals_attempted);
  if (total.tasks_migrated > 0) EXPECT_GT(total.steals_successful, 0u);
  EXPECT_GE(total.tasks_migrated, total.steals_successful);

  // The same invariants per thread, and the aggregate must equal the sum.
  par::StealStats sum;
  for (std::size_t t = 0; t < nthreads; ++t) {
    const auto& s = ws.stats(t);
    EXPECT_LE(s.steals_successful, s.steals_attempted) << "thread " << t;
    if (s.tasks_migrated > 0)
      EXPECT_GT(s.steals_successful, 0u) << "thread " << t;
    sum.steals_attempted += s.steals_attempted;
    sum.steals_successful += s.steals_successful;
    sum.tasks_migrated += s.tasks_migrated;
  }
  EXPECT_EQ(sum.steals_attempted, total.steals_attempted);
  EXPECT_EQ(sum.steals_successful, total.steals_successful);
  EXPECT_EQ(sum.tasks_migrated, total.tasks_migrated);
}

// The fallback sweep alone (single consumer pulling from deques it never
// owns work in) must count its attempts.
TEST(WorkStealing, FallbackSweepCountsAttempts) {
  par::WorkStealingScheduler ws(3);
  ws.seed(9);  // round-robin: every deque holds three tasks
  // Thread 2 drains everything serially; after its own three tasks every
  // further task arrives via a steal, and exhausting the system requires
  // sweep attempts that must all be counted.
  std::size_t got = 0;
  while (ws.next(2)) ++got;
  EXPECT_EQ(got, 9u);
  const auto& s = ws.stats(2);
  EXPECT_GT(s.steals_attempted, 0u);
  EXPECT_GT(s.steals_successful, 0u);
  EXPECT_EQ(s.tasks_migrated, 6u);  // three from each victim deque
  EXPECT_LE(s.steals_successful, s.steals_attempted);
}

TEST(WorkStealing, RecordExportsAggregateCounters) {
  par::WorkStealingScheduler ws(2);
  ws.seed(20);
  std::size_t got = 0;
  while (ws.next(0)) ++got;
  EXPECT_EQ(got, 20u);
  obs::Registry reg(2);
  ws.record(reg);
  const auto total = ws.stats();
  EXPECT_EQ(reg.counter_total("ws.steals_attempted"),
            total.steals_attempted);
  EXPECT_EQ(reg.counter_total("ws.steals_successful"),
            total.steals_successful);
  EXPECT_EQ(reg.counter_total("ws.tasks_migrated"), total.tasks_migrated);
}

TEST(TaskDeque, LifoOwnerFifoThief) {
  par::TaskDeque d;
  for (std::uint64_t i = 0; i < 10; ++i) d.push(i);
  EXPECT_EQ(d.pop().value(), 9u);          // owner pops newest
  const auto stolen = d.steal_half();      // thief takes oldest half
  ASSERT_FALSE(stolen.empty());
  EXPECT_EQ(stolen.front(), 0u);
  EXPECT_EQ(d.size(), 9u - stolen.size());
}

// --- Row-blocked tree reduction (parallel/reduce.hpp) -----------------

namespace {

struct Part {
  std::vector<double> v;
  Part& operator+=(const Part& other) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] += other.v[i];
    return *this;
  }
};

// Integer-valued buffers: every partial sum is exactly representable, so
// any tree shape must reproduce the serial sum bit for bit.
std::vector<Part> integer_parts(std::size_t nparts, std::size_t len) {
  std::vector<Part> parts(nparts, Part{std::vector<double>(len)});
  for (std::size_t t = 0; t < nparts; ++t)
    for (std::size_t i = 0; i < len; ++i)
      parts[t].v[i] = static_cast<double>((t + 1) * 31 + i * 7 % 113);
  return parts;
}

// Fractional values whose sums round, so the tree shape shows in the bits.
std::vector<Part> fractional_parts(std::size_t nparts, std::size_t len) {
  std::vector<Part> parts(nparts, Part{std::vector<double>(len)});
  for (std::size_t t = 0; t < nparts; ++t)
    for (std::size_t i = 0; i < len; ++i)
      parts[t].v[i] = 0.1 * static_cast<double>(t + 1) +
                      1e-3 * static_cast<double>(i) / 3.0;
  return parts;
}

std::vector<double> serial_sum(const std::vector<Part>& parts) {
  std::vector<double> total(parts.front().v.size(), 0.0);
  for (const auto& p : parts)
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += p.v[i];
  return total;
}

// Every part finished from a pool of `threads` that claims them
// dynamically, so the finish order and the merging threads vary.
std::vector<double> merge_on_pool(std::vector<Part> parts,
                                  std::size_t threads) {
  par::TreeMerge<Part> merge(parts.size());
  par::ThreadPool pool(threads);
  pool.parallel_for(0, parts.size(), [&](std::size_t i, std::size_t) {
    merge.finish(i, std::move(parts[i]));
  });
  return merge.take().value().v;
}

}  // namespace

TEST(TreeReduce, MatchesSerialSumForAllPartCounts) {
  for (std::size_t nparts : {1u, 2u, 3u, 5u, 8u, 13u}) {
    const auto parts = integer_parts(nparts, 257);
    EXPECT_EQ(merge_on_pool(parts, 4), serial_sum(parts))
        << "nparts=" << nparts;
  }
}

TEST(TreeReduce, DeterministicAcrossPoolSizes) {
  // The combination tree is fixed by the number of partials, so the
  // pool's thread count must be invisible — bit for bit — even for
  // non-representable fractional values.
  const auto reference = merge_on_pool(fractional_parts(6, 101), 1);
  for (std::size_t threads : {2u, 4u, 8u})
    EXPECT_EQ(merge_on_pool(fractional_parts(6, 101), threads), reference)
        << "threads=" << threads;
}

TEST(TreeReduce, SumFollowsTheFixedIndexTree) {
  // Six parts finished last to first: the total is still
  // ((p0 + p1) + (p2 + p3)) + (p4 + p5), element by element.
  auto parts = fractional_parts(6, 101);
  std::vector<double> expected(101);
  for (std::size_t i = 0; i < expected.size(); ++i)
    expected[i] = ((parts[0].v[i] + parts[1].v[i]) +
                   (parts[2].v[i] + parts[3].v[i])) +
                  (parts[4].v[i] + parts[5].v[i]);
  par::TreeMerge<Part> merge(parts.size());
  for (std::size_t i = parts.size(); i-- > 0;)
    merge.finish(i, std::move(parts[i]));
  EXPECT_EQ(merge.take().value().v, expected);
}

TEST(TreeReduce, EmptyAndSinglePartAreNoops) {
  par::TreeMerge<Part> none(0);
  EXPECT_FALSE(none.take().has_value());
  par::TreeMerge<Part> one(1);
  one.finish(0, Part{{1.0, 2.0, 3.0}});
  EXPECT_EQ(one.take().value().v, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(TreeReduce, MoreThreadsThanParts) {
  const auto parts = integer_parts(4, 3);
  EXPECT_EQ(merge_on_pool(parts, 8), serial_sum(parts));
}

TEST(TreeReduce, InOrderFinishKeepsFewPartsAlive) {
  // Finishing 64 parts in index order, taking each buffer from recycle()
  // when one is free, never holds more than log2(64) + 1 buffers: the
  // finished prefix is at most one subtree root per level.
  constexpr std::size_t nparts = 64;
  par::TreeMerge<Part> merge(nparts);
  std::size_t allocated = 0;
  for (std::size_t c = 0; c < nparts; ++c) {
    Part part;
    if (auto reused = merge.recycle()) {
      part = std::move(*reused);
    } else {
      part.v.resize(1);
      ++allocated;
    }
    part.v[0] = 1.0;
    merge.finish(c, std::move(part));
  }
  EXPECT_EQ(merge.take().value().v[0], 64.0);
  EXPECT_EQ(allocated, 7u);
}

namespace {

// The parts of `costs` between consecutive chunk ends.
std::vector<double> chunk_costs(const std::vector<double>& costs,
                                const std::vector<std::size_t>& end) {
  std::vector<double> out;
  for (std::size_t c = 0; c < end.size(); ++c)
    out.push_back(std::accumulate(costs.begin() + (c ? end[c - 1] : 0),
                                  costs.begin() + end[c], 0.0));
  return out;
}

}  // namespace

TEST(CutChunks, CoversEveryIndexOnceInOrder) {
  for (const std::size_t n : {1u, 10u, 63u, 64u, 65u, 1000u}) {
    std::vector<double> costs(n);
    for (std::size_t i = 0; i < n; ++i)
      costs[i] = 1.0 + static_cast<double>((i * 7919) % 13);
    const std::vector<std::size_t> end = par::cut_chunks(costs);
    ASSERT_FALSE(end.empty()) << n;
    EXPECT_LE(end.size(), par::kMaxChunks) << n;
    EXPECT_GT(end.front(), 0u) << n;
    for (std::size_t c = 1; c < end.size(); ++c)
      EXPECT_LT(end[c - 1], end[c]) << n << " chunk " << c;
    EXPECT_EQ(end.back(), n);
  }
}

TEST(CutChunks, ChunkCostsAreNearEqual) {
  // A chunk closes at the first item where the running cost reaches its
  // share, so every chunk is within one item's cost of total / kMaxChunks.
  std::vector<double> costs(5000);
  for (std::size_t i = 0; i < costs.size(); ++i)
    costs[i] = 1.0 + static_cast<double>((i * 104729) % 97) / 10.0;
  const double total = std::accumulate(costs.begin(), costs.end(), 0.0);
  const double largest = *std::max_element(costs.begin(), costs.end());
  const std::vector<std::size_t> end = par::cut_chunks(costs);
  ASSERT_EQ(end.size(), par::kMaxChunks);
  for (const double c : chunk_costs(costs, end))
    EXPECT_NEAR(c, total / par::kMaxChunks, largest);
}

TEST(CutChunks, AllZeroCostsFallBackToUnitCost) {
  const std::vector<std::size_t> end =
      par::cut_chunks(std::vector<double>(128, 0.0));
  ASSERT_EQ(end.size(), par::kMaxChunks);
  for (std::size_t c = 0; c < end.size(); ++c) EXPECT_EQ(end[c], 2 * (c + 1));
}

TEST(CutChunks, EmptyListGivesNoChunks) {
  EXPECT_TRUE(par::cut_chunks(std::vector<double>{}).empty());
}

TEST(RunChunks, TotalIndependentOfPool) {
  // Fractional per-item values: the total shows the merge order in its
  // last bits, and must not show the pool.
  const std::vector<std::size_t> end =
      par::cut_chunks(std::vector<double>(1000, 1.0));
  const auto sum = [&](par::ThreadPool* pool) {
    return par::run_chunks(
               end, pool,
               [] { return par::VectorPart<double>{std::vector<double>(3)}; },
               [](std::size_t begin, std::size_t stop,
                  par::VectorPart<double>& part) {
                 for (std::size_t i = begin; i < stop; ++i)
                   for (std::size_t k = 0; k < 3; ++k)
                     part.v[k] += 0.1 * static_cast<double>(i + k) / 3.0;
               })
        .v;
  };
  const std::vector<double> serial = sum(nullptr);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    par::ThreadPool pool(threads);
    EXPECT_EQ(sum(&pool), serial) << threads;
  }
  EXPECT_EQ(par::run_chunks(
                {}, nullptr,
                [] { return par::VectorPart<double>{{7.0}}; },
                [](std::size_t, std::size_t, par::VectorPart<double>&) {})
                .v,
            std::vector<double>{7.0});
}
