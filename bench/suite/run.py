#!/usr/bin/env python3
"""Repository benchmark: build bench/suite and run one workload.

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/suite/run.py --smoke

Run from the root of a checkout. The first form builds the benchmark
package (bench/suite/CMakeLists.txt, which compiles ../../src) into
.bench_build/suite when needed, runs the workload, and prints every
metric as `name value unit` followed by one JSON line
{correct, attempted, failed, metrics}. The full record (metrics,
correctness evidence, spans, build, host, source revision) goes to
.bench_build/records/ or --record-dir; compare.py reads those records.

--smoke runs every workload at toy size, untraced and traced, and exits
nonzero unless every run is correct and prints every metric that
BENCHMARK.json names. Its records go to the smoke/ subdirectory of the
record directory.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SUITE = ROOT / "bench" / "suite"
BUILD = ROOT / ".bench_build" / "suite"
BINARY = BUILD / "mthfx_bench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[bench] {message}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; build output goes to a log."""
    BUILD.mkdir(parents=True, exist_ok=True)
    build_log = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(SUITE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(build_log, "a") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                # A failed configure leaves a cache behind; drop it so the
                # next run configures again.
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                log(f"build failed: {' '.join(step)} (see {build_log})")
                return False
    return True


def source_revision():
    """git revision when the checkout is a repository, and a digest of the
    sources either way (benchmark checkouts are plain file trees)."""
    rev = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        rev = got.stdout.strip() or None
    digest = hashlib.sha256()
    for top in (ROOT / "src", SUITE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def run_workload(workload, seed, seconds, trace, record_dir, smoke=False):
    """Runs the binary; returns (result dict, stdout lines) or None."""
    record_dir.mkdir(parents=True, exist_ok=True)
    record = record_dir / (f"{workload}.seed{seed}.trace{trace}."
                           f"{time.strftime('%Y%m%dT%H%M%S')}.{os.getpid()}.json")
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--benchmark", str(ROOT / "BENCHMARK.json"),
           "--suite", str(SUITE / "suite.json"),
           "--scratch", str(ROOT / ".bench_build" / "scratch"),
           "--record", str(record)]
    if smoke:
        cmd.append("--smoke")
    started = time.time()
    try:
        got = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = got.stdout.splitlines()
    if got.returncode != 0 or not lines:
        log(f"{workload} exited with code {got.returncode}")
        return None
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload} printed a malformed result line")
        return None
    full = json.loads(record.read_text())
    full["git_rev"], full["source_digest"] = source_revision()
    full["started"] = started  # compare.py checks that two sets interleave
    record.write_text(json.dumps(full, indent=2) + "\n")
    return result, lines


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def smoke(record_dir):
    """Every workload at toy size, both modes: correct, every metric named."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            got = run_workload(workload, 1, 0.5, trace, record_dir, smoke=True)
            if got is None:
                ok = False
                continue
            result, _ = got
            missing = set(expected_metrics(trace)) - set(result["metrics"])
            good = result["correct"] and not missing
            ok = ok and good
            print(f"smoke {workload} trace={trace}: "
                  f"{'ok' if good else 'FAILED'} ({result['attempted']} ops"
                  f"{', missing ' + ', '.join(sorted(missing)) if missing else ''})")
    print("smoke: all workloads correct, every metric printed" if ok
          else "smoke: FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-dir", type=Path,
                        default=ROOT / ".bench_build" / "records")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    if not build():
        return 1
    if args.smoke:
        # Toy-size records stay apart from the measured ones compare.py reads.
        return smoke(args.record_dir / "smoke")
    got = run_workload(args.workload, args.seed, args.seconds, args.trace,
                       args.record_dir)
    if got is None:
        return 1
    for line in got[1]:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
