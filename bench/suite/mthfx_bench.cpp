// mthfx_bench — the repository benchmark binary (see README.md).
//
//   mthfx_bench --workload NAME --seed N --seconds S --trace 0|1
//               --benchmark BENCHMARK.json --suite suite.json
//               [--scratch DIR] [--record FILE] [--smoke]
//
// Runs one workload in this process and prints every metric as
// `name value unit`, then one JSON line {correct, attempted, failed,
// metrics}. With --trace 0 the metrics are BENCHMARK.json's end_to_end
// list, with --trace 1 its per_layer list; a per-layer metric of a layer
// the workload never reaches reads 0. --record writes the full record:
// metrics, correctness evidence, spans, and the build and host it ran on.
// Exit codes: 0 after a completed run (even an incorrect one), 1 when
// the run could not complete, 2 on bad arguments.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "suite.hpp"

namespace {

using namespace mthfx;
using namespace mthfx::bench_suite;

obs::Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return obs::Json::parse(text.str());
}

struct Args {
  RunConfig config;
  std::string benchmark, suite, record;
};

Args parse_args(int argc, char** argv) {
  Args args;
  args.config.scratch = ".bench_build/scratch";
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.config.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.config.seconds = std::stod(value);
      have_seconds = args.config.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      args.config.trace = value == "1";
    } else if (flag == "--benchmark") {
      args.benchmark = value;
    } else if (flag == "--suite") {
      args.suite = value;
    } else if (flag == "--scratch") {
      args.config.scratch = value;
    } else if (flag == "--record") {
      args.record = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || args.benchmark.empty() ||
      args.suite.empty())
    throw std::invalid_argument(
        "need --workload, --seed, --seconds > 0, --benchmark and --suite");
  return args;
}

Outcome run_workload(const RunConfig& config) {
  if (config.workload == "scf_screen") return run_scf_screen(config);
  if (config.workload == "bomd_water") return run_bomd_water(config);
  if (config.workload == "box_sparse") return run_box_sparse(config);
  if (config.workload == "serve_open") return run_serve_open(config);
  throw std::invalid_argument("unknown workload " + config.workload);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  obs::Json benchmark, suite;
  try {
    args = parse_args(argc, argv);
    benchmark = read_json(args.benchmark);
    suite = read_json(args.suite);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mthfx_bench: %s\n", e.what());
    return 2;
  }
  RunConfig& config = args.config;
  const unsigned hw = std::thread::hardware_concurrency();
  config.threads = std::min<std::size_t>(hw == 0 ? 1 : hw, 4);
  if (config.smoke) config.warmup_s = 0.1;
  if (const obs::Json* refs = suite.find("references"))
    config.references = *refs;

  Outcome out;
  try {
    out = run_workload(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mthfx_bench: %s failed: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }
  if (!config.trace) out.metric("peak_rss_mb", peak_rss_mb());

  // Emit exactly the metric list BENCHMARK.json names for this mode.
  std::map<std::string, double> values(out.metrics.begin(), out.metrics.end());
  const char* list = config.trace ? "per_layer" : "end_to_end";
  obs::Json metrics = obs::Json::object();
  std::size_t listed = 0;
  for (const obs::Json& entry : benchmark.find(list)->items()) {
    const std::string name = entry.find("name")->as_string();
    const std::string unit = entry.find("unit")->as_string();
    const auto it = values.find(name);
    if (it == values.end() && !config.trace) {
      std::fprintf(stderr, "mthfx_bench: %s did not measure %s\n",
                   config.workload.c_str(), name.c_str());
      return 1;
    }
    const double value = it == values.end() ? 0.0 : it->second;
    if (it != values.end()) ++listed;
    std::printf("%s %.9g %s\n", name.c_str(), value, unit.c_str());
    obs::Json m = obs::Json::object();
    m["value"] = value;
    m["unit"] = unit;
    metrics[name] = std::move(m);
  }
  if (listed != values.size()) {
    std::fprintf(stderr, "mthfx_bench: %s reports metrics missing from %s\n",
                 config.workload.c_str(), list);
    return 1;
  }

  const bool correct = out.checks_ok && out.failed == 0;
  obs::Json result = obs::Json::object();
  result["correct"] = correct;
  result["attempted"] = out.attempted;
  result["failed"] = out.failed;
  result["metrics"] = metrics;

  if (!args.record.empty()) {
    obs::Json record = result;
    record["workload"] = config.workload;
    record["seed"] = static_cast<long long>(config.seed);
    record["seconds"] = config.seconds;
    record["trace"] = config.trace;
    record["smoke"] = config.smoke;
    record["hfx_threads"] = out.hfx_threads;
    record["nproc"] = hw;
    record["compiler"] = MTHFX_BENCH_COMPILER;
    record["flags"] = MTHFX_BENCH_FLAGS;
    record["checks"] = out.checks;
    record["detail"] = out.detail;
    if (config.trace) record["spans"] = out.spans;
    std::ofstream file(args.record);
    file << record.dump(2) << "\n";
    if (!file) {
      std::fprintf(stderr, "mthfx_bench: cannot write %s\n",
                   args.record.c_str());
      return 1;
    }
  }
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
