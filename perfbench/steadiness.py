"""Steadiness report: run workloads over many seeds and show the spread.

    python3 perfbench/steadiness.py --workload debug_cycle --seeds 1-10 \
        [--seconds 15] [--json out.json] [--compare earlier.json]

For every end-to-end metric of every workload (the gated ones from
``BENCHMARK.json`` and the workload-specific ones of the run's report)
it prints the median, the quartiles, the quartile spread as a share of
the median (``statistics.quantiles(values, n=4)``, the measure a
regression gate applies) and (max - min) / median.  A metric whose
quartile spread is wider than its bound is flagged ``WIDE``; one wider
than a third of its bound is flagged ``near``.  ``--compare`` also
checks each median against an earlier ``--json`` output, flagging a
metric whose median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Bounds for the workload-specific end-to-end metrics a report carries
#: beyond the gated ones in BENCHMARK.json (same meaning: the share of
#: the median by which the metric may worsen).
REPORT_BOUNDS = {
    "record_s": ("lower", 0.2),
    "replay_s": ("lower", 0.2),
    "first_slice_s": ("lower", 0.2),
    "exec_slice_s": ("lower", 0.2),
    "slice_p50_ms": ("lower", 0.15),
    "slice_p90_ms": ("lower", 0.2),
    "hunt_s": ("lower", 0.2),
    "served_ops_per_s": ("higher", 0.25),
    "served_p50_ms": ("lower", 0.25),
    "served_p99_ms": ("lower", 0.25),
}


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """Every end-to-end metric value of one untraced run, by name."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d:\n%s%s"
                           % (workload, seed, proc.returncode, proc.stdout,
                              proc.stderr[-2000:]))
    values = {}
    for line in lines:
        if line.startswith("report "):
            report = json.loads(line[len("report "):])
            for name, metric in report["metrics"].items():
                values[name] = metric["value"]
    for name, metric in json.loads(lines[-1])["metrics"].items():
        values[name] = metric["value"]
    return values


def spread(values: list) -> tuple:
    """(median, q1, q3, quartile spread / median, range / median)."""
    mid = statistics.median(values)
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = mid
    scale = abs(mid) if mid else float("nan")
    return mid, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def bounds_table() -> tuple:
    """({metric: (better, bound)}, the BENCHMARK.json spec)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    table = dict(REPORT_BOUNDS)
    for metric in spec["end_to_end"]:
        table[metric["name"]] = (metric["better"], metric["bound"])
    return table, spec


def report(results: dict, bounds: dict, earlier: dict) -> int:
    flagged = 0
    for workload, runs in results.items():
        print("\n%s (%d runs)" % (workload, len(runs)))
        print("  %-20s %12s %12s %12s %8s %8s %6s  %s"
              % ("metric", "median", "q1", "q3", "iqr/med", "rng/med",
                 "bound", "flag"))
        names = sorted(set().union(*[set(run) for run in runs.values()]))
        for name in names:
            if name not in bounds:
                continue
            values = [run[name] for run in runs.values() if name in run]
            mid, q1, q3, iqr, rng = spread(values)
            better, bound = bounds[name]
            flag = ""
            if name != "setup_s" and iqr > bound:
                flag, flagged = "WIDE", flagged + 1
            elif name != "setup_s" and iqr > bound / 3:
                flag = "near"
            before = earlier.get(workload, {})
            if before:
                old = statistics.median(
                    [run[name] for run in before.values() if name in run])
                change = (mid - old) / abs(old)
                worse = change if better == "lower" else -change
                flag += "  %+.1f%% vs earlier" % (100 * change)
                if worse > bound:
                    flag, flagged = flag + " WORSE", flagged + 1
            print("  %-20s %12.6g %12.6g %12.6g %8.3f %8.3f %6.2f  %s"
                  % (name, mid, q1, q3, iqr, rng, bound, flag))
    return flagged


def main(argv=None) -> int:
    bounds, spec = bounds_table()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", help="write every run's values here")
    parser.add_argument("--compare", help="an earlier --json output")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = {}
    if args.compare:
        with open(args.compare) as handle:
            earlier = json.load(handle)

    results: dict = {}
    for workload in workloads:
        results[workload] = {}
        for seed in parse_seeds(args.seeds):
            results[workload][str(seed)] = run_once(workload, seed,
                                                    args.seconds)
            print("%s seed %d done" % (workload, seed), file=sys.stderr)
            if args.json:
                with open(args.json, "w") as handle:
                    json.dump(results, handle, indent=1)
    flagged = report(results, bounds, earlier)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
