"""Tests of the benchmark itself, in its tiny size (each run takes seconds).

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

import pytest

from perfbench import fingerprints
from perfbench.env import state_dir
from perfbench.spans import Tracer
from perfbench.workloads import Ledger, ServedMix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: The end-to-end metrics each workload's report names, with units.
REPORTED = {
    "debug_cycle": {"cycle_s": "s", "record_s": "s", "replay_s": "s",
                    "first_slice_s": "s", "exec_slice_s": "s",
                    "peak_rss_mb": "MB", "failed_frac": "fraction"},
    "query_storm": {"cycle_s": "s", "first_slice_s": "s",
                    "slice_p50_ms": "ms", "slice_p90_ms": "ms",
                    "peak_rss_mb": "MB", "failed_frac": "fraction"},
    "bug_hunt": {"cycle_s": "s", "hunt_s": "s", "peak_rss_mb": "MB",
                 "failed_frac": "fraction"},
    "served_mix": {"served_ops_per_s": "ops/s", "served_p50_ms": "ms",
                   "served_p99_ms": "ms", "failed_frac": "fraction"},
}

#: Per-layer metrics that must be nonzero on a workload (its own layers)
#: and ones that must be zero (layers it must not touch).
LAYERS_USED = {
    "debug_cycle": ["pinplay.record.ratio", "pinplay.relog.ratio",
                    "slicing.trace.ratio", "slicing.ddg_build.ratio",
                    "pinplay.slice_replay_s"],
    "query_storm": ["slicing.reexec.scaffold.ratio",
                    "slicing.reexec.passes", "slicing.reexec.hit_frac"],
    "bug_hunt": ["maple.expose_s", "detect.online.ratio",
                 "analysis.hunt.scan_s", "analysis.hunt.evaluate_s",
                 "analysis.hunt.confirm_s", "analysis.hunt.candidates"],
    "served_mix": ["serve.slice.p50_ms", "serve.last_reads.p50_ms",
                   "serve.replay.p50_ms", "serve.record.p50_ms",
                   "serve.index_cache.hits"],
}
LAYERS_UNUSED = {
    "debug_cycle": ["slicing.reexec.passes", "serve.slice.p50_ms"],
    "query_storm": ["slicing.trace_s", "slicing.ddg_build_s",
                    "pinplay.relog_s", "serve.slice.p50_ms"],
    "bug_hunt": ["slicing.reexec.passes", "serve.slice.p50_ms"],
    "served_mix": ["slicing.ddg_build_s", "analysis.hunt.scan_s"],
}


def run_bench(workload: str, trace: int, *extra, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    report = next(json.loads(line[len("report "):]) for line in lines
                  if line.startswith("report "))
    return report, json.loads(lines[-1])


def units_of(metrics: dict) -> dict:
    return {name: metric["unit"] for name, metric in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report, result = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert units_of(result["metrics"]) == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name, unit in REPORTED[workload].items():
        assert report["metrics"][name]["unit"] == unit, name
    assert report["metrics"]["failed_frac"]["value"] == 0
    stamp = report["stamp"]
    assert stamp["seed"] == 3
    assert stamp["config"]["obs"] is False
    assert stamp["affinity_cpus"] >= 1
    assert stamp["python"] and stamp["git_sha"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    _report, result = parse(proc)
    assert result["correct"] is True
    metrics = result["metrics"]
    assert units_of(metrics) == {m["name"]: m["unit"]
                                 for m in SPEC["per_layer"]}
    assert metrics["vm.untraced_replay_s"]["value"] > 0
    assert metrics["trace.cycle_traced_s"]["value"] > 0
    for name in LAYERS_USED[workload]:
        assert metrics[name]["value"] > 0, name
    for name in LAYERS_UNUSED[workload]:
        assert metrics[name]["value"] == 0, name


def test_tampered_fingerprint_fails_the_run(tmp_path):
    table = fingerprints.load()
    for entry in table["debug_cycle"]["tiny"]["schedules"].values():
        entry["total"] = "1:0000000000000000"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(table))
    proc = run_bench("debug_cycle", 0, "--fingerprints", str(path))
    assert proc.returncode == 1
    _report, result = parse(proc)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_unknown_key_slice_counts_as_failed():
    workdir = tempfile.mkdtemp(dir=state_dir(ROOT))
    ledger = Ledger()
    mix = ServedMix(1, "tiny", fingerprints.load(), workdir, Tracer(),
                    ledger, repo_root=ROOT)
    try:
        mix.setup()
        answer = mix._call(mix.conns[0], "slice", defaultdict(list),
                           lambda c: c.slice("0" * 64, instance=[0, 0]))
    finally:
        mix.close()
        shutil.rmtree(workdir, ignore_errors=True)
    assert answer is None
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert mix.server.returncode is not None


def test_bare_benchmark_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "debug_cycle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.recording = True
    with tracer.span("cycle", trace_id=7):
        with tracer.span("pinplay.record"):
            time.sleep(0.02)
    totals = tracer.self_times()
    assert totals["pinplay"] >= 0.02
    assert totals["bench"] < 0.01
    assert {span.trace_id for span in tracer.spans} == {7}
    record = next(s for s in tracer.spans if s.name == "pinplay.record")
    cycle = next(s for s in tracer.spans if s.name == "cycle")
    assert record.parent == cycle.span_id
