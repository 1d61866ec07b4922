"""Run one DrDebug benchmark workload and print its metrics.

    python3 perfbench/run.py --workload debug_cycle --seed 1 \
        --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up is repeated in fresh processes (``SETUP_RUNS`` in all, the last
one going on to measure), and ``setup_s`` is their median.  Timings are
in reference seconds: wall seconds with the host's measured slowdown
taken out (see ``perfbench/reference.py``).  With
``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` hold every ``end_to_end`` metric of ``BENCHMARK.json``; with
``--trace 1``, every ``per_layer`` metric.  The lines before it give the
workload's full report: each of its end-to-end metrics by name and unit,
its operation counts and the run's configuration stamp.

Exits 0 when every answer was checked correct, 1 when one was wrong,
and 2 when the run could not be made (no ``src/repro`` in the checkout,
a worker that died, or a run over its time limit).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.env import scrubbed_env  # noqa: E402
from perfbench.reference import probe, slowdown  # noqa: E402

#: Fresh processes that set up per run; setup_s is their median.
SETUP_RUNS = 7
#: Hard limit on one whole run, set-up processes included.
DEADLINE_S = 170.0


class RunError(Exception):
    """The run could not produce a result."""


def _worker_cmd(args, setup_only: bool) -> list:
    cmd = [sys.executable, "-m", "perfbench.worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.fingerprints:
        cmd += ["--fingerprints", args.fingerprints]
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def run_worker(args, setup_only: bool, deadline: float):
    """(setup seconds, exit code, report or None) of one fresh worker."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        _worker_cmd(args, setup_only), cwd=ROOT, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
        env=scrubbed_env([os.path.join(ROOT, "src"), ROOT]))
    timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                            os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    setup_s = None
    last = ""
    try:
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - started
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if setup_s is None:
        raise RunError("worker exited with %s before set-up finished" % code)
    report = None
    if not setup_only:
        try:
            report = json.loads(last)
        except ValueError:
            raise RunError("worker exited with %s without a report" % code)
    return setup_s, code, report


def result_metrics(spec: dict, report: dict, setup_s: float,
                     trace: int) -> dict:
    names = spec["per_layer"] if trace else spec["end_to_end"]
    measured = dict(report["metrics"])
    measured["setup_s"] = {"value": setup_s, "unit": "s"}
    out = {}
    for metric in names:
        value = measured.get(metric["name"], {}).get("value")
        if not isinstance(value, (int, float)):
            raise RunError("metric %s was not measured" % metric["name"])
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def print_report(report: dict, setups: list) -> None:
    stamp = report["stamp"]
    print("workload %s  seed %d  trace %d  size %s  attempted %d  failed %d"
          % (stamp["workload"], stamp["seed"], stamp["trace"],
             stamp["size"], report["attempted"], report["failed"]))
    print("  %-40s %14.6g s  (median of %s)"
          % ("setup_s", statistics.median(setups),
             ", ".join("%.3f" % s for s in setups)))
    for name, metric in sorted(report["metrics"].items()):
        print("  %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    for problem in report["problems"]:
        print("  FAILED: %s" % problem)
    print("report " + json.dumps(dict(report, setup_runs_s=setups)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one DrDebug benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long runs for the benchmark's "
                             "own tests")
    parser.add_argument("--fingerprints", default=None,
                        help="slice fingerprint table (default: the one "
                             "stored with the benchmark)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: no repro sources under %s" % os.path.join(ROOT, "src"),
              file=sys.stderr)
        return 2
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)

    deadline = time.monotonic() + DEADLINE_S
    setups = []
    try:
        # Each set-up time is converted to reference seconds with probes
        # taken just before and after its worker (see reference.py).
        for _ in range(SETUP_RUNS - 1):
            before = probe()
            setup_s, code, _report = run_worker(args, True, deadline)
            if code != 0:
                raise RunError("set-up worker exited with %d" % code)
            setups.append(setup_s / slowdown(before, probe()))
        before = probe()
        setup_s, code, report = run_worker(args, False, deadline)
        setups.append(setup_s / slowdown(before, before))
        print_report(report, setups)
        metrics = result_metrics(spec, report, statistics.median(setups),
                                   args.trace)
    except RunError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    correct = code == 0 and report["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
