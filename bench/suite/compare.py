#!/usr/bin/env python3
"""Compare two sets of benchmark records (written by run.py).

    python3 bench/suite/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are record directories or files. Smoke records and records
whose run length differs from BENCHMARK.json's run_seconds are left out,
and so are the values of runs whose result was not correct. For every
workload and metric the table shows each side's run count, median and
quartiles and a verdict:

  better      the new side won at least 9 of every 10 paired runs (ties
              count for neither) and the medians differ by more than the
              base side's interquartile range;
  worse       the new median is worse than the base median by more than the
              metric's bound in BENCHMARK.json;
  unchanged   neither of the above, with both sides' spread within the bound;
  unresolved  a side's spread (interquartile range over median) exceeds the
              bound, unless every new run beats every base run.

Runs are paired by seed, and runs of one seed by the order they ran in.
A new side that failed a larger share of its operations, or had runs that
were not correct, is never rated better: its verdicts read unresolved.
When one side's runs all started before the other side's first run, a
change of host speed between the two sets can move every median by more
than any bound (a shared 4-core VM has slowed by 65% between two sets of
unchanged code), so better and worse verdicts read unresolved as well:
interleave the two sides' runs.

Metrics with unit `count` are exact counts: they are reported as counts
(`same` or the difference), not as speed-ups. Per-layer metrics (traced
records) carry no bound and get no verdict; layers a workload never
reaches (zero on both sides) are left out. Incorrect runs and failed
operations are listed per side.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path, run_seconds):
    """Records under `path` in run order, and how many were left out.
    Record file names hold their start time, so sorting them orders the
    runs of one workload and seed by time."""
    files = sorted(Path(path).glob("*.json")) if Path(path).is_dir() else [Path(path)]
    records, skipped = [], 0
    for f in files:
        r = json.loads(f.read_text())
        if not {"workload", "seed", "trace", "metrics", "seconds"} <= set(r):
            continue
        if r.get("smoke", False) or r["seconds"] != run_seconds:
            skipped += 1
            continue
        records.append(r)
    return records, skipped


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, pairs, bound, better, new_fails_more):
    """base/new: value lists; pairs: (base, new) values of paired runs."""
    sign = -1.0 if better == "lower" else 1.0
    b_med, b_q1, b_q3 = summary(base)
    n_med = summary(new)[0]
    if spread(base) > bound or spread(new) > bound:
        all_better = min(sign * v for v in new) > max(sign * v for v in base)
        return "better" if all_better and not new_fails_more else "unresolved"
    wins = sum(1 for b, n in pairs if sign * n > sign * b)
    if pairs and wins >= 0.9 * len(pairs) and sign * (n_med - b_med) > (b_q3 - b_q1):
        return "unresolved" if new_fails_more else "better"
    if sign * (n_med - b_med) < -bound * abs(b_med):
        return "worse"
    return "unchanged"


def values(records, name):
    """(seed, value) of the correct runs that report `name`, in run order."""
    return [(r["seed"], r["metrics"][name]["value"]) for r in records
            if r.get("correct", False) and name in r["metrics"]]


def paired(base, new):
    """Pairs runs of one seed in the order they ran."""
    by_seed = defaultdict(lambda: ([], []))
    for seed, v in base:
        by_seed[seed][0].append(v)
    for seed, v in new:
        by_seed[seed][1].append(v)
    return [pair for b, n in by_seed.values() for pair in zip(b, n)]


def sequential(base, new):
    """True when one side's runs all started before the other's first run
    (as recorded by run.py)."""
    b = [r["started"] for r in base if "started" in r]
    n = [r["started"] for r in new if "started" in r]
    return bool(b and n) and (max(b) < min(n) or max(n) < min(b))


def failure_share(records):
    """(share of failed operations, number of incorrect runs)."""
    attempted = sum(r.get("attempted", 0) for r in records)
    failed = sum(r.get("failed", 0) for r in records)
    incorrect = sum(1 for r in records if not r.get("correct", False))
    return (failed / attempted if attempted else 0.0), incorrect


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=ROOT / "BENCHMARK.json")
    args = parser.parse_args()
    spec = json.loads(Path(args.benchmark).read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}

    groups = defaultdict(lambda: {"base": [], "new": []})
    for side, path in (("base", args.base), ("new", args.new)):
        records, skipped = load(path, spec["run_seconds"])
        if skipped:
            print(f"{side}: left out {skipped} smoke or other-length record(s)")
        for r in records:
            groups[(r["workload"], bool(r["trace"]))][side].append(r)

    header = (f"{'workload':<11} {'metric':<33} {'unit':<6} "
              f"{'base median [q1, q3] (n)':<34} {'new median [q1, q3] (n)':<34} "
              f"{'change':>8}  verdict")
    print(header)
    print("-" * len(header))
    for (workload, traced), sets in sorted(groups.items()):
        shares = {}
        for side in ("base", "new"):
            share, incorrect = failure_share(sets[side])
            shares[side] = (share, incorrect)
            failed = sum(r.get("failed", 0) for r in sets[side])
            if incorrect or failed:
                print(f"{workload:<11} {side} side: {incorrect} incorrect run(s), "
                      f"{failed} failed operation(s) ({share:.2%})")
        new_fails_more = (shares["new"][0] > shares["base"][0]
                          or shares["new"][1] > shares["base"][1])
        apart = sequential(sets["base"], sets["new"])
        if apart and not traced:
            print(f"{workload:<11} runs of the two sides do not interleave in time: "
                  "better/worse read unresolved")
        metrics = layer if traced else e2e
        for name, meta in metrics.items():
            b_runs = values(sets["base"], name)
            n_runs = values(sets["new"], name)
            if not b_runs or not n_runs:
                continue
            base = [v for _, v in b_runs]
            new = [v for _, v in n_runs]
            if not any(base) and not any(new):
                continue  # a layer this workload never reaches
            b, n = summary(base), summary(new)
            change = (n[0] - b[0]) / abs(b[0]) if b[0] else 0.0
            cells = [f"{m:.5g} [{lo:.4g}, {hi:.4g}] ({len(v)})"
                     for (m, lo, hi), v in ((b, base), (n, new))]
            if meta["unit"] == "count":
                same = len(set(base)) == 1 and set(base) == set(new)
                result = "same" if same else f"count {n[0] - b[0]:+g}"
            elif traced:
                result = "-"
            else:
                result = verdict(base, new, paired(b_runs, n_runs),
                                 meta["bound"], meta["better"], new_fails_more)
                if apart and result in ("better", "worse"):
                    result = "unresolved"
            print(f"{workload:<11} {name:<33} {meta['unit']:<6} {cells[0]:<34} "
                  f"{cells[1]:<34} {change:>+8.1%}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
