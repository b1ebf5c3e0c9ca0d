#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/registry.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"

namespace obs = mthfx::obs;

// ---------------------------------------------------------------- Json --

TEST(Json, ScalarsRoundTrip) {
  obs::Json o = obs::Json::object();
  o["i"] = 42;
  o["d"] = 2.5;
  o["s"] = "hello";
  o["b"] = true;
  o["n"] = obs::Json();
  EXPECT_EQ(o.dump(),
            R"({"i":42,"d":2.5,"s":"hello","b":true,"n":null})");
}

TEST(Json, PreservesInsertionOrder) {
  obs::Json o = obs::Json::object();
  o["zebra"] = 1;
  o["alpha"] = 2;
  o["mid"] = 3;
  EXPECT_EQ(o.dump(), R"({"zebra":1,"alpha":2,"mid":3})");
}

TEST(Json, ArraysAndNesting) {
  obs::Json a = obs::Json::array();
  for (int i = 0; i < 3; ++i) {
    obs::Json row = obs::Json::object();
    row["i"] = i;
    a.push_back(std::move(row));
  }
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.dump(), R"([{"i":0},{"i":1},{"i":2}])");
}

TEST(Json, EscapesStrings) {
  obs::Json o = obs::Json::object();
  o["k"] = std::string("a\"b\\c\n\t");
  EXPECT_EQ(o.dump(), "{\"k\":\"a\\\"b\\\\c\\n\\t\"}");
}

TEST(Json, DoubleFormattingIsShortestRoundTrip) {
  obs::Json o = obs::Json::object();
  o["third"] = 1.0 / 3.0;
  o["whole"] = 3.0;
  o["tiny"] = 1e-300;
  const std::string s = o.dump();
  // Round-trip exactness: re-parse by hand through stod.
  EXPECT_NE(s.find("0.3333333333333333"), std::string::npos);
  EXPECT_NE(s.find("\"whole\":3"), std::string::npos);
  EXPECT_NE(s.find("1e-300"), std::string::npos);
}

TEST(Json, NonFiniteBecomesNull) {
  obs::Json o = obs::Json::object();
  o["inf"] = std::numeric_limits<double>::infinity();
  o["nan"] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(o.dump(), R"({"inf":null,"nan":null})");
}

TEST(Json, IndentedDumpIsStable) {
  obs::Json o = obs::Json::object();
  o["a"] = 1;
  obs::Json inner = obs::Json::array();
  inner.push_back(2);
  o["b"] = std::move(inner);
  EXPECT_EQ(o.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

// ------------------------------------------------------------ Registry --

TEST(Registry, CounterAndTimerBasics) {
  obs::Registry reg(2);
  auto c = reg.counter("events");
  auto t = reg.timer("busy");
  c.add(0);
  c.add(1, 5);
  t.add_seconds(0, 0.25);
  t.add_seconds(1, 0.75);
  EXPECT_EQ(reg.counter_total("events"), 6u);
  EXPECT_DOUBLE_EQ(reg.timer_seconds("busy"), 1.0);
  EXPECT_EQ(reg.timer_count("busy"), 2u);
  EXPECT_EQ(reg.counter_per_thread("events"),
            (std::vector<std::uint64_t>{1, 5}));
}

TEST(Registry, RegistrationIsIdempotent) {
  obs::Registry reg(1);
  reg.counter("x").add(0, 3);
  reg.counter("x").add(0, 4);  // same slot, looked up again
  EXPECT_EQ(reg.counter_total("x"), 7u);
}

TEST(Registry, UnknownNamesReadAsZero) {
  obs::Registry reg(1);
  EXPECT_EQ(reg.counter_total("nope"), 0u);
  EXPECT_DOUBLE_EQ(reg.timer_seconds("nope"), 0.0);
  EXPECT_EQ(reg.counter_per_thread("nope"),
            (std::vector<std::uint64_t>{0}));
}

TEST(Registry, DefaultHandlesDropUpdates) {
  obs::Counter c;
  obs::Timer t;
  c.add(0, 100);           // must not crash
  t.add_seconds(0, 1.0);   // must not crash
}

// Acceptance criterion: aggregation across >= 4 threads matches a serial
// reference computed from the same per-thread update plan.
TEST(Registry, ParallelAggregationMatchesSerialReference) {
  constexpr std::size_t nthreads = 4;
  constexpr int rounds = 20000;
  obs::Registry reg(nthreads);
  auto counter = reg.counter("work.items");
  auto timer = reg.timer("work.seconds");

  // Deterministic plan: thread t adds (t + 1) per round to the counter
  // and (t + 1) * 1e-6 "seconds" per round to the timer.
  std::uint64_t ref_count = 0;
  double ref_seconds = 0.0;
  std::vector<std::uint64_t> ref_per_thread(nthreads, 0);
  for (std::size_t t = 0; t < nthreads; ++t) {
    ref_per_thread[t] = static_cast<std::uint64_t>(rounds) * (t + 1);
    ref_count += ref_per_thread[t];
    ref_seconds += static_cast<double>(rounds) *
                   static_cast<double>(t + 1) * 1e-6;
  }

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < nthreads; ++t)
    threads.emplace_back([&, t] {
      for (int r = 0; r < rounds; ++r) {
        counter.add(t, t + 1);
        timer.add_seconds(t, static_cast<double>(t + 1) * 1e-6);
      }
    });
  for (auto& th : threads) th.join();

  EXPECT_EQ(reg.counter_total("work.items"), ref_count);
  EXPECT_EQ(reg.counter_per_thread("work.items"), ref_per_thread);
  // Each slot sums its own doubles in-order, so the per-thread values are
  // exact; the cross-thread total only varies by summation order.
  EXPECT_NEAR(reg.timer_seconds("work.seconds"), ref_seconds,
              1e-9 * ref_seconds);
  EXPECT_EQ(reg.timer_count("work.seconds"),
            static_cast<std::uint64_t>(rounds) * nthreads);
}

TEST(Registry, ScopedTimerAccumulates) {
  obs::Registry reg(1);
  auto t = reg.timer("scoped");
  {
    obs::ScopedTimer timer(t, 0);
  }
  {
    obs::ScopedTimer timer(t, 0);
  }
  EXPECT_EQ(reg.timer_count("scoped"), 2u);
  EXPECT_GE(reg.timer_seconds("scoped"), 0.0);
}

TEST(Registry, ToJsonShape) {
  obs::Registry reg(2);
  reg.counter("c").add(0, 7);
  reg.timer("t").add_seconds(1, 0.5);
  const obs::Json j = reg.to_json();
  const obs::Json* counters = j.find("counters");
  const obs::Json* timers = j.find("timers");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(timers, nullptr);
  ASSERT_NE(counters->find("c"), nullptr);
  EXPECT_EQ(counters->find("c")->as_int(), 7);
  const obs::Json* t = timers->find("t");
  ASSERT_NE(t, nullptr);
  EXPECT_DOUBLE_EQ(t->find("seconds")->as_double(), 0.5);
  EXPECT_EQ(t->find("count")->as_int(), 1);
  EXPECT_EQ(t->find("per_thread_seconds")->size(), 2u);
}

// --------------------------------------------------------------- Trace --

TEST(Trace, RecordsNestedSpans) {
  obs::Trace trace;
  {
    obs::Trace::Scope outer(trace, "outer");
    {
      obs::Trace::Scope inner(trace, "inner");
    }
    {
      obs::Trace::Scope inner(trace, "inner");
    }
  }
  EXPECT_EQ(trace.count("outer"), 1u);
  EXPECT_EQ(trace.count("inner"), 2u);
  // Children record before the parent; depth reflects nesting.
  for (const auto& s : trace.spans()) {
    if (s.name == "outer") EXPECT_EQ(s.depth, 0u);
    if (s.name == "inner") EXPECT_EQ(s.depth, 1u);
  }
  EXPECT_GE(trace.total_seconds("outer"), trace.total_seconds("inner"));
}

TEST(Trace, DepthIsPerThread) {
  obs::Trace trace;
  obs::Trace::Scope outer(trace, "main-outer");
  std::thread worker([&] {
    obs::Trace::Scope span(trace, "worker-span");
  });
  worker.join();
  // The worker's span must be depth 0 on its own thread, not nested
  // under the main thread's open span.
  for (const auto& s : trace.spans())
    if (s.name == "worker-span") EXPECT_EQ(s.depth, 0u);
}

TEST(Trace, ClearResets) {
  obs::Trace trace;
  {
    obs::Trace::Scope s(trace, "x");
  }
  trace.clear();
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.count("x"), 0u);
}

TEST(Trace, ToJsonSortsByStart) {
  obs::Trace trace;
  {
    obs::Trace::Scope a(trace, "first");
    obs::Trace::Scope b(trace, "second");
  }
  const obs::Json j = trace.to_json();
  const obs::Json* spans = j.find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->size(), 2u);
  // "first" starts earlier, so it sorts ahead of "second" even though
  // it records later (parent closes after child).
  double prev = -1.0;
  for (const auto& s : spans->items()) {
    const double start = s.find("start_seconds")->as_double();
    EXPECT_GE(start, prev);
    prev = start;
  }
  EXPECT_EQ(j.find("dropped")->as_int(), 0);
}

TEST(Trace, GlobalTraceIsSingleton) {
  EXPECT_EQ(&obs::global_trace(), &obs::global_trace());
}

TEST(Trace, DisabledTraceRecordsNothingEnabledRecordsNested) {
  obs::Trace trace(/*enabled=*/false);
  EXPECT_FALSE(trace.enabled());
  {
    obs::Trace::Scope outer(trace, "outer");
    obs::Trace::Scope inner(trace, "inner");
  }
  EXPECT_TRUE(trace.spans().empty());
  EXPECT_EQ(trace.dropped(), 0u);

  trace.set_enabled(true);
  {
    obs::Trace::Scope outer(trace, "outer");
    obs::Trace::Scope inner(trace, "inner");
  }
  const auto spans = trace.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");  // a child records before its parent
  EXPECT_EQ(spans[0].depth, 1u);
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[1].depth, 0u);
}

TEST(Trace, GlobalTraceStartsDisabled) {
  // Nothing in this test binary enables it.
  EXPECT_FALSE(obs::global_trace().enabled());
}

TEST(Stopwatch, MeasuresNonNegativeAndResets) {
  obs::Stopwatch w;
  const double t1 = w.seconds();
  EXPECT_GE(t1, 0.0);
  w.reset();
  EXPECT_GE(w.seconds(), 0.0);
}

TEST(JsonParse, RoundTripsDumpedDocument) {
  obs::Json j = obs::Json::object();
  j["name"] = "scf";
  j["iteration"] = 17;
  j["converged"] = true;
  j["nothing"] = obs::Json();
  j["energy"] = -76.02676218742871;
  j["tiny"] = 4.9406564584124654e-324;  // denormal min
  j["big"] = 1.7976931348623157e308;
  obs::Json arr = obs::Json::array();
  arr.push_back(1);
  arr.push_back(0.1);
  arr.push_back("x\n\"y\"\t\\z");
  j["list"] = arr;

  const obs::Json back = obs::Json::parse(j.dump());
  EXPECT_EQ(back.find("name")->as_string(), "scf");
  EXPECT_EQ(back.find("iteration")->as_int(), 17);
  EXPECT_EQ(back.find("iteration")->kind(), obs::Json::Kind::kInt);
  EXPECT_TRUE(back.find("converged")->as_bool());
  EXPECT_TRUE(back.find("nothing")->is_null());
  // Bit-exact double round-trip (the checkpoint/restart contract).
  EXPECT_EQ(back.find("energy")->as_double(), -76.02676218742871);
  EXPECT_EQ(back.find("tiny")->as_double(), 4.9406564584124654e-324);
  EXPECT_EQ(back.find("big")->as_double(), 1.7976931348623157e308);
  EXPECT_EQ(back.find("energy")->kind(), obs::Json::Kind::kDouble);
  const auto& list = back.find("list")->items();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].as_int(), 1);
  EXPECT_EQ(list[1].as_double(), 0.1);
  EXPECT_EQ(list[2].as_string(), "x\n\"y\"\t\\z");

  // The indented form parses to the same document too.
  EXPECT_EQ(obs::Json::parse(j.dump(2)).dump(), j.dump());
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW(obs::Json::parse(""), std::invalid_argument);
  EXPECT_THROW(obs::Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(obs::Json::parse("{\"a\":}"), std::invalid_argument);
  EXPECT_THROW(obs::Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(obs::Json::parse("tru"), std::invalid_argument);
  EXPECT_THROW(obs::Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(obs::Json::parse("{} trailing"), std::invalid_argument);
}
