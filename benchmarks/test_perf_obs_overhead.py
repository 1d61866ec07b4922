"""Overhead guard: observability *disabled* must be (nearly) free.

The obs registry's design promise is that the disabled path costs at most
one hoisted local-bool check per VM step (see
``src/repro/obs/registry.py``).  This benchmark pins that promise:

* **baseline** — a subprocess that installs a do-nothing stub in place of
  ``repro.obs`` *before* importing ``repro``, so the timed loop runs a
  build with no observability code at all (the pre-obs world);
* **candidate** — a subprocess importing the real module with
  ``REPRO_OBS`` unset (obs present but disabled — the default everyone
  runs).

Both time the untraced-replay fast path on the
``benchmarks/test_perf_engine.py`` blackscholes workload (best-of-N
in-process, best-of-M subprocesses).  In full mode the candidate must be
within 5% of the baseline; under ``REPRO_PERF_SMOKE=1`` (CI) the
machinery runs at reduced size but the noise-sensitive ratio bar is
skipped.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_obs_overhead.py -q -s
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.config import perf_smoke

SMOKE = perf_smoke()

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         os.pardir))

#: Workload size / repetition knobs.
if SMOKE:
    UNITS, REPLAY_REPEATS, SUBPROCESS_RUNS = 40, 2, 1
else:
    UNITS, REPLAY_REPEATS, SUBPROCESS_RUNS = 200, 5, 3

#: The allowed slowdown of "obs imported but disabled" over "no obs at
#: all" on the untraced replay fast path.
OVERHEAD_BAR = 1.05

#: Runs in a subprocess.  argv: mode ("stub"|"real"), units, repeats.
_WORKER = r"""
import gc, json, sys, time

mode, units, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])

if mode == "stub":
    # Install a do-nothing observability module *before* repro imports
    # it: this process measures a build with no obs code at all.
    import types
    _perf_counter = time.perf_counter

    class _StubSpan:
        __slots__ = ("elapsed", "_started")
        def __init__(self):
            self.elapsed = 0.0
            self._started = 0.0
        def __enter__(self):
            self._started = _perf_counter()
            return self
        def __exit__(self, exc_type, exc, tb):
            self.elapsed = _perf_counter() - self._started

    class _StubRegistry:
        enabled = False
        def enable(self): pass
        def disable(self): pass
        def inc(self, name): pass
        def add(self, name, n): pass
        def observe(self, name, value): pass
        def counter(self, name): return self
        def histogram(self, name): return self
        def span(self, name): return _StubSpan()

    _pkg = types.ModuleType("repro.obs")
    _mod = types.ModuleType("repro.obs.registry")
    _mod.OBS = _pkg.OBS = _StubRegistry()
    _pkg.registry = _mod
    sys.modules["repro.obs"] = _pkg
    sys.modules["repro.obs.registry"] = _mod

from repro.obs.registry import OBS
from repro.pinplay import RegionSpec, record_region, replay_machine
from repro.vm import RandomScheduler
from repro.workloads import get_parsec

if mode == "real":
    # Sanity: the real registry is in play and starts disabled.
    assert type(OBS).__name__ == "ObsRegistry", type(OBS)
    assert not OBS.enabled, "REPRO_OBS leaked into the candidate run"
else:
    assert type(OBS).__name__ == "_StubRegistry", type(OBS)

program = get_parsec("blackscholes").build(units=units, nthreads=4)
pinball = record_region(program, RandomScheduler(seed=7), RegionSpec())

best = float("inf")
gc.collect()
gc.disable()
for _ in range(repeats):
    machine = replay_machine(pinball, program)
    started = time.perf_counter()
    machine.run(max_steps=pinball.total_steps)
    best = min(best, time.perf_counter() - started)
print(json.dumps({"mode": mode, "steps": pinball.total_steps,
                  "best_replay_sec": best}))
"""


def _run_variant(mode: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    env.pop("REPRO_OBS", None)       # candidate must be *disabled*, not off
    completed = subprocess.run(
        [sys.executable, "-c", _WORKER, mode, str(UNITS),
         str(REPLAY_REPEATS)],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=600)
    assert completed.returncode == 0, (
        "%s variant failed:\n%s\n%s"
        % (mode, completed.stdout, completed.stderr))
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_disabled_obs_overhead_within_bar():
    best = {}
    for _ in range(SUBPROCESS_RUNS):
        # Interleave the variants so machine-load drift hits both equally.
        for mode in ("stub", "real"):
            result = _run_variant(mode)
            if (mode not in best
                    or result["best_replay_sec"]
                    < best[mode]["best_replay_sec"]):
                best[mode] = result

    assert best["stub"]["steps"] == best["real"]["steps"], (
        "variants executed different work")
    baseline = best["stub"]["best_replay_sec"]
    candidate = best["real"]["best_replay_sec"]
    ratio = candidate / baseline
    print("\nobs-disabled overhead: baseline %.4fs  candidate %.4fs  "
          "ratio %.3fx (bar %.2fx%s)"
          % (baseline, candidate, ratio, OVERHEAD_BAR,
             ", skipped: smoke" if SMOKE else ""))

    if not SMOKE:
        assert ratio <= OVERHEAD_BAR, (
            "obs-disabled replay is %.3fx the no-obs baseline "
            "(bar %.2fx) — the disabled path is no longer near-free"
            % (ratio, OVERHEAD_BAR))
