// mthfx command-line driver: run SCF / gradient / BOMD calculations from
// a simple input file (format documented in src/app/input.hpp).
//
//   ./build/examples/mthfx_cli water.in
//   ./build/examples/mthfx_cli --json water.in           # result record
//   ./build/examples/mthfx_cli --json=result.json water.in
//   ./build/examples/mthfx_cli --trace water.in          # phase table
//   ./build/examples/mthfx_cli --trace=run.json water.in # full span JSON
//   ./build/examples/mthfx_cli --checkpoint=run.ckpt water.in
//   ./build/examples/mthfx_cli --restore=run.ckpt water.in
//
// --json replaces the human report on stdout with the machine-readable
// result record (schema mthfx.result.v1 — the same record the screening
// engine emits per job); --json=<file> writes the record to <file> and
// keeps the human report on stdout.
//
// With --trace, a per-phase timing summary (scf.* / jk.* spans from the
// global trace) is printed after the report; --trace=<file> additionally
// writes the complete span tree as JSON (schema: docs/observability.md).
//
// --checkpoint=<file> saves SCF (or MD, for task md) state to <file>
// after every iteration/step; --restore=<file> resumes from such a file
// (format and determinism guarantees: docs/resilience.md). Fault
// injection is configured per input deck (`fault_spec`) or via the
// MTHFX_FAULT_SPEC environment variable.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "app/driver.hpp"
#include "engine/report.hpp"
#include "obs/trace.hpp"

namespace {

void print_phase_table(const mthfx::obs::Trace& trace) {
  struct Row {
    std::string name;
    double seconds = 0.0;
    double first_start = 0.0;
    std::uint64_t count = 0;
    std::uint32_t depth = 0;
  };
  // Aggregate by name; remember the shallowest depth (for indentation)
  // and the earliest start (so parents sort above their children).
  std::map<std::string, Row> by_name;
  for (const auto& span : trace.spans()) {
    auto& row = by_name[span.name];
    if (row.count == 0) {
      row.name = span.name;
      row.first_start = span.start_seconds;
      row.depth = span.depth;
    } else {
      row.first_start = std::min(row.first_start, span.start_seconds);
      row.depth = std::min(row.depth, span.depth);
    }
    row.seconds += span.duration_seconds;
    row.count += 1;
  }
  std::vector<Row> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a.first_start < b.first_start;
  });
  std::printf("\nphase timings (wall seconds, aggregated over spans):\n");
  std::printf("%-24s %10s %8s %12s\n", "phase", "total/s", "count",
              "mean/ms");
  for (const auto& row : rows) {
    const std::string label = std::string(2 * row.depth, ' ') + row.name;
    std::printf("%-24s %10.4f %8llu %12.3f\n", label.c_str(), row.seconds,
                static_cast<unsigned long long>(row.count),
                1e3 * row.seconds / static_cast<double>(row.count));
  }
  if (trace.dropped() > 0)
    std::printf("[trace] %llu spans dropped (buffer full)\n",
                static_cast<unsigned long long>(trace.dropped()));
}

}  // namespace

int main(int argc, char** argv) {
  bool trace = false;
  bool json = false;
  std::string trace_file;
  std::string json_file;
  std::string checkpoint_file;
  std::string restore_file;
  const char* input_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--trace") == 0) {
      trace = true;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace = true;
      trace_file = arg + 8;
    } else if (std::strcmp(arg, "--json") == 0) {
      json = true;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json = true;
      json_file = arg + 7;
    } else if (std::strncmp(arg, "--checkpoint=", 13) == 0) {
      checkpoint_file = arg + 13;
    } else if (std::strncmp(arg, "--restore=", 10) == 0) {
      restore_file = arg + 10;
    } else if (!input_path) {
      input_path = arg;
    } else {
      input_path = nullptr;
      break;
    }
  }
  if (!input_path) {
    std::fprintf(stderr,
                 "usage: %s [--json[=file.json]] [--trace[=file.json]]"
                 " [--checkpoint=file] [--restore=file] <input-file>\n"
                 "input format: see src/app/input.hpp\n",
                 argv[0]);
    return 2;
  }
  try {
    auto input = mthfx::app::parse_input_file(input_path);
    input.checkpoint_path = checkpoint_file;
    input.restore_path = restore_file;
    if (trace) mthfx::obs::global_trace().set_enabled(true);
    const auto result = mthfx::app::run_structured(input);
    if (json) {
      const auto record = mthfx::engine::result_record(input, result);
      if (json_file.empty()) {
        std::fputs((record.dump(2) + "\n").c_str(), stdout);
      } else {
        std::ofstream json_out(json_file);
        if (!json_out) {
          std::fprintf(stderr, "error: cannot write %s\n", json_file.c_str());
          return 2;
        }
        json_out << record.dump(2) << "\n";
        std::fputs(result.report.c_str(), stdout);
        std::printf("[json] wrote %s\n", json_file.c_str());
      }
    } else {
      std::fputs(result.report.c_str(), stdout);
    }
    if (trace) {
      const auto& tr = mthfx::obs::global_trace();
      print_phase_table(tr);
      if (!trace_file.empty()) {
        std::ofstream out(trace_file);
        if (!out) {
          std::fprintf(stderr, "error: cannot write %s\n",
                       trace_file.c_str());
          return 2;
        }
        out << tr.to_json().dump(2) << "\n";
        std::printf("[trace] wrote %s\n", trace_file.c_str());
      }
    }
    return result.ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
