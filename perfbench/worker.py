"""One workload in one fresh process: set up, signal, measure, report.

Started by ``perfbench/run.py`` (never by hand) as::

    python3 -m perfbench.worker --workload NAME --seed N --seconds S \
        --trace 0|1 [--size full|tiny] [--setup-only]

It prints ``READY`` on its own line the moment set-up ends (the runner
times set-up from process start to that line), then, unless
``--setup-only``, measures and prints one JSON report as its last line.
It exits 1 if any operation's answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

from perfbench import fingerprints
from perfbench.env import state_dir
from perfbench.spans import Tracer
from perfbench.workloads import (LAYER_UNITS, WORKLOADS, Ledger, median,
                                 peak_rss_mb, resolved_config)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(workload, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": resolved_config(workload.index),
        "params": workload.params,
        "git_sha": git_sha(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def layer_metrics(workload, untraced: dict, traced: dict) -> dict:
    """Every per-layer metric; 0 where the workload does no such work."""
    values = {name: 0.0 for name in LAYER_UNITS}
    values.update(workload.layers(traced))
    values["lang.compile_s"] = workload.compile_s
    plain = median(untraced["cycle"])
    with_spans = median(traced["cycle"])
    values["trace.cycle_untraced_s"] = plain
    values["trace.cycle_traced_s"] = with_spans
    values["trace.overhead_s"] = with_spans - plain
    cycles = max(1, len(traced["cycle"]))
    for layer, total in workload.tracer.self_times().items():
        name = "self.%s_s" % layer
        if name in values:
            values[name] = total / cycles
    return {name: (float(value), LAYER_UNITS[name])
            for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fingerprints", default=fingerprints.DEFAULT_PATH)
    args = parser.parse_args(argv)

    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload,
                               dir=state_dir(ROOT))
    tracer = Tracer()
    ledger = Ledger()
    workload = WORKLOADS[args.workload](
        args.seed, args.size, fingerprints.load(args.fingerprints), workdir,
        tracer, ledger, repo_root=ROOT)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            untraced = workload.measure(args.seconds / 2.0)
            tracer.recording = True
            traced = workload.measure(args.seconds / 2.0)
            tracer.recording = False
            workload.finish()
            metrics = layer_metrics(workload, untraced, traced)
            spans_path = os.path.join(
                state_dir(ROOT), "spans-%s-%d.json"
                % (args.workload, args.seed))
            tracer.dump(spans_path, stamp(workload, args))
        else:
            samples = workload.measure(args.seconds)
            metrics = workload.e2e(samples)
            metrics["cycle_wall_s"] = (median(samples["cycle_wall"]), "s")
            metrics["slowdown"] = (median(samples["slowdown"]), "x")
            if "peak_rss_mb" not in metrics:
                metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            workload.finish()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    metrics["failed_frac"] = (ledger.failed / max(1, ledger.attempted),
                              "fraction")
    report = {
        "stamp": stamp(workload, args),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(report), flush=True)
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
