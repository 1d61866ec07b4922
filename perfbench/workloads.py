"""The four benchmark workloads, each driven through repro's public API.

Why these four, and which layers dominate each (measured on a 2-CPU
x86-64 container, Python 3.11; see README.md for the numbers):

* ``debug_cycle`` — the paper's cyclic-debugging loop at a scale where
  tracing and relogging dominate: record a region, load it, verify a
  replay, open a ddg slicing session, slice ``total``, relog the slice
  and replay the slice pinball.  Heavy on the traced VM path, the DDG
  build, record and relog.  No serve, detect or re-execution work.
* ``query_storm`` — interactive follow-up queries on the pointer band
  under on-demand re-execution slicing: one session open, then at least
  100 distinct criteria with the slice cache cold.  Heavy on
  ``slicing.reexec`` window re-replay; no full trace, DDG build, relog
  or serve work.  It uses the slicing layer differently from
  ``debug_cycle``, so a change that helps one index at the other's cost
  shows.
* ``bug_hunt`` — bug triage: expose the pbzip2 analog's failure with
  maple, hunt it to a confirmed, minimized report, then slice the
  failure and relog.  Heavy on the untraced and record VM paths,
  ``detect.online``, ``maple`` and ``analysis.hunt``; slicing is light.
* ``served_mix`` — the debug service as a team uses it: two closed-loop
  clients over two connections against ``repro serve``, zipf-distributed
  keys over 16 stored recordings (more than the two workers' session
  LRUs hold, so the tail reopens sessions from the index cache), reads
  (``slice``, ``last_reads``, ``replay``) with ``record`` writes mixed
  in.  The only workload that exercises the serve layers; the other
  three are where a serve change should show no change.

Every generated input — schedule seeds, criteria draws, zipf draws and
recorded sources — comes from the workload seed; the program receives
only the generated inputs.  Every configuration knob the program reads
is passed explicitly (``PINNED``), and every subprocess starts with the
``REPRO_*`` environment scrubbed.
"""

from __future__ import annotations

import gc
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro import (Pinball, RandomScheduler, RegionSpec, SliceOptions,
                   SlicingSession, compile_source, config,
                   expose_and_record, record_region, replay)
from repro.analysis.hunt import (confirm, dedupe_rows, evaluate, hunt,
                                 scan)
from repro.analysis.report import RaceFinding
from repro.detect import detect_races
from repro.serve import DebugClient, RpcRemoteError
from repro.workloads import get_bug, get_parsec, get_pointer, get_specomp

from perfbench.fingerprints import (criterion_key, fingerprint,
                                    table_for)
from perfbench.env import scrubbed_env
from perfbench.reference import probe, slowdown
from perfbench.spans import Tracer

#: Configuration passed explicitly to every call that reads it.
PINNED = {
    "engine": "predecoded",
    "pinball_format": "v2",
    "checkpoint_interval": 500,
    "obs": False,
    "slice_shards": 1,
    "serve_workers": 2,
    "serve_lru_entries": 4,
    "index_cache": True,
    "detect_online": True,
    "hunt_budget": 24,
}

#: Workload sizes.  ``full`` is what a benchmark run measures; ``tiny`` runs
#: every workload end to end in seconds, for the benchmark's own tests.
#: ``schedules`` is the number of distinct recording schedules a run
#: cycles through (the stored fingerprints cover each of them).
SIZES = {
    "full": {
        "debug_cycle": {"units": 60, "nthreads": 4, "skip": 50,
                        "switch_prob": 0.05, "schedules": 8},
        "query_storm": {"units": 100, "nthreads": 4, "switch_prob": 0.05,
                        "schedules": 4, "pool": 256, "queries": 120},
        "bug_hunt": {"warmup": 150, "schedules": 8, "profile_seeds": 4},
        "served_mix": {"recordings": 16, "record_jobs": 8,
                       "units": {"blackscholes": 12, "mgrid": 6,
                                 "pbzip2": 40, "list_chase": 10},
                       "pool": 24, "slices_per_round": 3,
                       "zipf_s": 1.1},
    },
    "tiny": {
        "debug_cycle": {"units": 6, "nthreads": 2, "skip": 20,
                        "switch_prob": 0.05, "schedules": 2},
        "query_storm": {"units": 6, "nthreads": 2, "switch_prob": 0.05,
                        "schedules": 2, "pool": 40, "queries": 20},
        "bug_hunt": {"warmup": 30, "schedules": 2, "profile_seeds": 4},
        "served_mix": {"recordings": 16, "record_jobs": 4,
                       "units": {"blackscholes": 3, "mgrid": 2,
                                 "pbzip2": 10, "list_chase": 3},
                       "pool": 8, "slices_per_round": 2,
                       "zipf_s": 1.1},
    },
}

#: Minimum cycles per measured half, so a median always has company.
MIN_CYCLES = 3

#: The pbzip2 analog's failure code, which every hunt must confirm.
PBZIP2_FAILURE = 101

#: Every per-layer metric, with its unit.  A workload that does no work
#: in a layer reports 0 for it.
LAYER_UNITS = {
    "vm.untraced_replay_s": "s",
    "lang.compile_s": "s",
    "pinplay.record_s": "s",
    "pinplay.record.ratio": "x",
    "pinplay.pinball_bytes": "B",
    "pinplay.open_s": "s",
    "pinplay.replay_s": "s",
    "pinplay.replay.ratio": "x",
    "pinplay.relog_s": "s",
    "pinplay.relog.ratio": "x",
    "pinplay.kept_frac": "fraction",
    "pinplay.slice_replay_s": "s",
    "slicing.trace_s": "s",
    "slicing.trace.ratio": "x",
    "slicing.trace_records": "count",
    "slicing.preprocess_s": "s",
    "slicing.ddg_build_s": "s",
    "slicing.ddg_build.ratio": "x",
    "slicing.ddg_edges": "count",
    "slicing.criterion_s": "s",
    "slicing.query_s": "s",
    "slicing.slice_nodes": "count",
    "slicing.reexec.scaffold_s": "s",
    "slicing.reexec.scaffold.ratio": "x",
    "slicing.reexec.prepare_s": "s",
    "slicing.reexec.passes": "count",
    "slicing.reexec.window_steps_per_query": "count",
    "slicing.reexec.hit_frac": "fraction",
    "maple.expose_s": "s",
    "detect.online_s": "s",
    "detect.online.ratio": "x",
    "analysis.hunt.scan_s": "s",
    "analysis.hunt.evaluate_s": "s",
    "analysis.hunt.confirm_s": "s",
    "analysis.hunt.candidates": "count",
    "analysis.hunt.candidates_per_s": "1/s",
    "analysis.hunt.confirmed_frac": "fraction",
    "serve.slice.p50_ms": "ms",
    "serve.last_reads.p50_ms": "ms",
    "serve.replay.p50_ms": "ms",
    "serve.record.p50_ms": "ms",
    "serve.sessions.hit_frac": "fraction",
    "serve.index_cache.hits": "count",
    "serve.index_cache.misses": "count",
    "serve.pool.busy_rejects": "count",
    "serve.errors": "count",
    "trace.cycle_untraced_s": "s",
    "trace.cycle_traced_s": "s",
    "trace.overhead_s": "s",
    "self.bench_s": "s",
    "self.vm_s": "s",
    "self.pinplay_s": "s",
    "self.slicing_s": "s",
    "self.maple_s": "s",
    "self.detect_s": "s",
    "self.analysis_s": "s",
    "self.serve_s": "s",
}


# -- shared helpers -----------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, pct: int) -> float:
    """The ``pct``-th percentile (inclusive method) of ``values``."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return float(statistics.quantiles(values, n=100,
                                      method="inclusive")[pct - 1])


def ratio(part: float, base: float) -> float:
    return part / base if base > 0 else 0.0


def peak_rss_mb() -> Optional[float]:
    """This process's whole-life RSS high-water mark, in MB.

    ``None`` when the reading is below the counter's resolution (never
    report a 0 that a later ratio would divide by)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0 if kb > 0 else None


def resolved_config(index: str) -> dict:
    """Every knob as repro resolves it for this run's explicit values."""
    return {
        "engine": config.engine(explicit=PINNED["engine"]),
        "slice_index": config.slice_index(explicit=index),
        "slice_shards": config.slice_shards(explicit=PINNED["slice_shards"]),
        "pinball_format": config.pinball_format(
            explicit=PINNED["pinball_format"]),
        "checkpoint_interval": config.checkpoint_interval(
            explicit=PINNED["checkpoint_interval"]),
        "obs": config.obs_enabled(explicit=PINNED["obs"]),
        "serve_workers": config.serve_workers(
            explicit=PINNED["serve_workers"]),
        "serve_lru_entries": PINNED["serve_lru_entries"],
        "index_cache": config.index_cache(explicit=PINNED["index_cache"]),
        "detect_online": config.detect_online(
            explicit=PINNED["detect_online"]),
        "hunt_budget": config.hunt_budget(explicit=PINNED["hunt_budget"]),
    }


def slice_options(index: str) -> SliceOptions:
    return SliceOptions(index=index, shards=PINNED["slice_shards"],
                        obs=PINNED["obs"])


def open_session(pinball, program, index: str) -> SlicingSession:
    return SlicingSession(pinball, program, slice_options(index),
                          engine=PINNED["engine"])


def record_streamed(program, scheduler, region, path: str):
    """Record a streamed v2 region pinball to ``path``."""
    return record_region(program, scheduler, region,
                         engine=PINNED["engine"], stream_path=path,
                         pinball_format=PINNED["pinball_format"],
                         checkpoint_interval=PINNED["checkpoint_interval"])


def timed_compile(build, repeats: int = 3):
    """(program, median compile seconds) over ``repeats`` compiles."""
    times = []
    program = None
    for _ in range(repeats):
        started = time.perf_counter()
        program = build()
        times.append(time.perf_counter() - started)
    return program, median(times)


def build_debug_cycle_program(params: dict):
    return get_parsec("blackscholes").build(units=params["units"],
                                            nthreads=params["nthreads"])


def record_debug_cycle(program, params: dict, sched: int, path: str):
    return record_streamed(
        program,
        RandomScheduler(seed=sched, switch_prob=params["switch_prob"]),
        RegionSpec(skip=params["skip"]), path)


def build_query_storm_program(params: dict):
    return get_pointer("list_chase").build(units=params["units"],
                                           nthreads=params["nthreads"])


def record_query_storm(program, params: dict, sched: int, path: str):
    return record_streamed(
        program,
        RandomScheduler(seed=sched, switch_prob=params["switch_prob"]),
        RegionSpec(), path)


@contextmanager
def quiesced_gc():
    """Collect, then keep the cyclic collector off for the block.

    As ``timeit`` does, and the repo's own perf benchmarks: left on, the
    collector's state carried over from earlier cycles moved whole-cycle
    times by up to 30% between otherwise identical processes.  The
    garbage a cycle leaves is collected before the next one starts,
    outside every timed region.
    """
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class Ledger:
    """Attempted and failed operation counts, shared by client threads."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, what: str) -> bool:
        """Count one operation, failed unless ``ok``."""
        with self._lock:
            self.attempted += 1
        if not ok:
            self.reject(what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)

    def reject(self, what: str, count: int = 1) -> None:
        """Mark ``count`` already-counted operations as failed (their
        answers turned out wrong in a later check)."""
        with self._lock:
            self.failed += count
            if len(self.problems) < 20:
                self.problems.append(what)


# -- the workload base --------------------------------------------------------

class Workload:
    """One workload: set up, measure for a while, check, report.

    Subclasses implement :meth:`setup`, :meth:`cycle` (one timed unit of
    the workload's loop, appending to ``samples``), :meth:`e2e` and
    :meth:`layers`.  ``cycle_no`` keeps counting across the untraced and
    traced halves of a run, so both halves walk the same seeded draws.
    """

    name = ""
    index = "ddg"
    #: Per-cycle timing samples reported in reference seconds.
    timed = ("cycle",)

    def __init__(self, seed: int, size: str, fingerprints: dict,
                 workdir: str, tracer: Tracer, ledger: Ledger,
                 repo_root: str = "") -> None:
        self.seed = seed
        self.repo_root = repo_root
        self.size = size
        self.params = SIZES[size][self.name]
        self.fingerprints = fingerprints
        self.workdir = workdir
        self.tracer = tracer
        self.ledger = ledger
        self.cycle_no = 0
        self.compile_s = 0.0

    def rng(self, *parts) -> random.Random:
        """A generator seeded by the workload seed and ``parts``."""
        return random.Random(":".join(str(p) for p in
                                      (self.name, self.seed) + parts))

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, number: int, samples: dict) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> dict:
        """Run cycles for ``seconds`` (at least ``MIN_CYCLES``).

        Each cycle sits between two reference probes; the timings in
        :attr:`timed` are converted to reference seconds with the
        slowdown the probes measured (see :mod:`perfbench.reference`).
        """
        samples: dict = defaultdict(list)
        started = time.perf_counter()
        done = 0
        before = probe()
        while done < MIN_CYCLES or time.perf_counter() - started < seconds:
            number = self.cycle_no
            self.cycle_no += 1
            done += 1
            counts = {key: len(samples[key]) for key in self.timed}
            try:
                with quiesced_gc():
                    self.cycle(number, samples)
            except Exception as exc:   # noqa: BLE001 — count, keep going
                self.ledger.fail("cycle %d: %s: %s"
                                 % (number, type(exc).__name__, exc))
            after = probe()
            factor = slowdown(before, after)
            before = after
            samples["slowdown"].append(factor)
            samples["cycle_wall"].extend(samples["cycle"][counts["cycle"]:])
            for key in self.timed:
                values = samples[key]
                values[counts[key]:] = [v / factor
                                        for v in values[counts[key]:]]
        samples["elapsed"].append(time.perf_counter() - started)
        return dict(samples)

    def finish(self) -> None:
        """Checks that need the whole run (outside every timed region)."""

    def close(self) -> None:
        """Release processes and files."""

    def e2e(self, samples: dict) -> dict:
        raise NotImplementedError

    def layers(self, samples: dict) -> dict:
        raise NotImplementedError

    def base_replay(self, pinball, program, samples: dict) -> None:
        """Traced half only: the untraced replay every ratio divides by."""
        with self.tracer.span("vm.untraced_replay", trace_id="base") as sp:
            replay(pinball, program, verify=False, engine=PINNED["engine"])
        samples["base_replay"].append(sp.elapsed)

    def span_median(self, name: str) -> float:
        return median(self.tracer.durations(name))


# -- debug_cycle --------------------------------------------------------------

class DebugCycle(Workload):
    """Record, load, replay, slice ``total``, relog, replay the slice."""

    name = "debug_cycle"
    index = "ddg"
    timed = ("cycle", "record", "replay", "first_slice", "exec_slice")

    def setup(self) -> None:
        params = self.params
        self.program, self.compile_s = timed_compile(
            lambda: build_debug_cycle_program(params))
        self.expected = table_for(self.fingerprints, self.name, self.size,
                                  params)
        # Warm-up: one small cycle pays the lazy imports and decode
        # tables, so the first timed cycle is not an outlier.
        small = get_parsec("blackscholes").build(units=2, nthreads=2)
        path = self.path("warmup.pinball")
        record_debug_cycle(small, dict(params, skip=0), 0, path)
        pinball = Pinball.load(path)
        replay(pinball, small, engine=PINNED["engine"])
        session = open_session(pinball, small, self.index)
        dslice = session.slice_for_global("total")
        replay(session.make_slice_pinball(dslice), small, verify=False,
               engine=PINNED["engine"])
        os.unlink(path)

    def cycle(self, number: int, samples: dict) -> None:
        tr = self.tracer
        sched = (self.seed + number) % self.params["schedules"]
        path = self.path("cycle-%d.pinball" % number)
        with tr.span("cycle", trace_id=number) as cycle:
            with tr.span("pinplay.record") as rec:
                record_debug_cycle(self.program, self.params, sched, path)
            with tr.span("pinplay.open") as opened:
                pinball = Pinball.load(path)
            with tr.span("pinplay.replay") as rep:
                _machine, result = replay(pinball, self.program,
                                          verify=True,
                                          engine=PINNED["engine"])
            with tr.span("slicing.session"):
                session = open_session(pinball, self.program, self.index)
            # slice_for_global("total"), split so that criterion lookup,
            # the (lazy) DDG build and the query are timed apart.
            with tr.span("slicing.criterion"):
                criterion = session.last_write_to_global("total")
                locations = [session.global_location("total")]
            with tr.span("slicing.ddg_build"):
                session.slicer.ddg  # noqa: B018 — first access builds it
            with tr.span("slicing.query") as query:
                dslice = session.slice_for(criterion, locations)
            with tr.span("pinplay.relog") as relog:
                slice_pinball = session.make_slice_pinball(dslice)
            with tr.span("pinplay.slice_replay") as srep:
                replay(slice_pinball, self.program, verify=False,
                       engine=PINNED["engine"])
        stats = session.stats()
        expected = self.expected.get(str(sched), {})
        kept = slice_pinball.meta.get("kept_instructions")
        self.ledger.check(result.failure is None,
                          "cycle %d: replay reported a failure" % number)
        self.ledger.check(
            fingerprint(dslice.nodes) == expected.get("total"),
            "cycle %d: total slice %s, stored %s"
            % (number, fingerprint(dslice.nodes), expected.get("total")))
        self.ledger.check(kept == expected.get("kept"),
                          "cycle %d: slice pinball kept %s, stored %s"
                          % (number, kept, expected.get("kept")))
        samples["cycle"].append(cycle.elapsed)
        samples["record"].append(rec.elapsed)
        samples["replay"].append(rep.elapsed)
        samples["first_slice"].append(query.end - opened.start)
        samples["exec_slice"].append(srep.end - relog.start)
        samples["pinball_bytes"].append(os.path.getsize(path))
        samples["kept_frac"].append(
            ratio(kept or 0, pinball.total_instructions))
        samples["trace"].append(stats["trace_time_sec"])
        samples["preprocess"].append(stats["preprocess_time_sec"])
        samples["ddg_build"].append(stats["ddg_build_time_sec"])
        samples["trace_records"].append(stats["trace_records"])
        samples["ddg_edges"].append(stats["edge_count"])
        samples["slice_nodes"].append(len(dslice.nodes))
        if self.tracer.recording:
            self.base_replay(pinball, self.program, samples)
        os.unlink(path)

    def e2e(self, samples: dict) -> dict:
        return {
            "cycle_s": (median(samples["cycle"]), "s"),
            "record_s": (median(samples["record"]), "s"),
            "replay_s": (median(samples["replay"]), "s"),
            "first_slice_s": (median(samples["first_slice"]), "s"),
            "exec_slice_s": (median(samples["exec_slice"]), "s"),
        }

    def layers(self, samples: dict) -> dict:
        base = median(samples["base_replay"])
        record = self.span_median("pinplay.record")
        rep = self.span_median("pinplay.replay")
        relog = self.span_median("pinplay.relog")
        trace = median(samples["trace"])
        ddg = median(samples["ddg_build"])
        return {
            "vm.untraced_replay_s": base,
            "pinplay.record_s": record,
            "pinplay.record.ratio": ratio(record, base),
            "pinplay.pinball_bytes": median(samples["pinball_bytes"]),
            "pinplay.open_s": self.span_median("pinplay.open"),
            "pinplay.replay_s": rep,
            "pinplay.replay.ratio": ratio(rep, base),
            "pinplay.relog_s": relog,
            "pinplay.relog.ratio": ratio(relog, base),
            "pinplay.kept_frac": median(samples["kept_frac"]),
            "pinplay.slice_replay_s": self.span_median(
                "pinplay.slice_replay"),
            "slicing.trace_s": trace,
            "slicing.trace.ratio": ratio(trace, base),
            "slicing.trace_records": median(samples["trace_records"]),
            "slicing.preprocess_s": median(samples["preprocess"]),
            "slicing.ddg_build_s": ddg,
            "slicing.ddg_build.ratio": ratio(ddg, base),
            "slicing.ddg_edges": median(samples["ddg_edges"]),
            "slicing.criterion_s": self.span_median("slicing.criterion"),
            "slicing.query_s": self.span_median("slicing.query"),
            "slicing.slice_nodes": median(samples["slice_nodes"]),
        }


# -- query_storm --------------------------------------------------------------

class QueryStorm(Workload):
    """One reexec session open, then many distinct cold-cache queries."""

    name = "query_storm"
    index = "reexec"
    timed = ("cycle", "first_slice", "query")

    def setup(self) -> None:
        params = self.params
        self.program, self.compile_s = timed_compile(
            lambda: build_query_storm_program(params))
        self.expected = table_for(self.fingerprints, self.name, self.size,
                                  params)
        for sched in range(params["schedules"]):
            record_query_storm(self.program, params, sched,
                               self.path("qs-%d.pinball" % sched))
        # Warm-up on a small recording: lazy imports and decode tables.
        small = get_pointer("list_chase").build(units=2, nthreads=2)
        path = self.path("warmup.pinball")
        record_query_storm(small, params, 0, path)
        session = open_session(Pinball.load(path), small, self.index)
        for crit in session.last_reads(3):
            session.slice_for(crit)
        self.agreement: List[tuple] = []

    def cycle(self, number: int, samples: dict) -> None:
        tr = self.tracer
        sched = (self.seed + number) % self.params["schedules"]
        draw = self.rng("criteria", number)
        answers = []
        with tr.span("cycle", trace_id=number) as cycle:
            with tr.span("pinplay.open") as opened:
                pinball = Pinball.load(self.path("qs-%d.pinball" % sched))
            with tr.span("slicing.session"):
                session = open_session(pinball, self.program, self.index)
            with tr.span("slicing.criterion"):
                pool = session.last_reads(self.params["pool"])
                criteria = draw.sample(pool, self.params["queries"])
            first = None
            for crit in criteria:
                with tr.span("slicing.query") as query:
                    dslice = session.slice_for(crit)
                if first is None:
                    first = query.end - opened.start
                samples["query"].append(query.elapsed)
                answers.append((crit, list(dslice.nodes)))
        stats = session.stats()
        expected = self.expected.get(str(sched), {})
        for crit, nodes in answers:
            got = fingerprint(nodes)
            want = expected.get(criterion_key(crit))
            self.ledger.check(got == want, "cycle %d: slice of %s is %s, "
                              "stored %s" % (number, crit, got, want))
            samples["slice_nodes"].append(len(nodes))
        if len(self.agreement) < 3:
            self.agreement.append((sched, answers[0][0],
                                   fingerprint(answers[0][1])))
        samples["cycle"].append(cycle.elapsed)
        samples["first_slice"].append(first)
        samples["scaffold"].append(stats["trace_time_sec"])
        samples["prepare"].append(stats["preprocess_time_sec"])
        samples["passes"].append(stats["reexec_passes"])
        samples["window_steps_per_query"].append(
            stats["reexec_window_steps"] / len(criteria))
        samples["hit_frac"].append(
            ratio(stats["reexec_watch_hits"], stats["reexec_window_steps"]))
        if self.tracer.recording:
            self.base_replay(pinball, self.program, samples)

    def finish(self) -> None:
        # ddg and reexec agree on a sample of the run's own criteria.
        for sched, crit, got in self.agreement:
            pinball = Pinball.load(self.path("qs-%d.pinball" % sched))
            session = open_session(pinball, self.program, "ddg")
            want = fingerprint(session.slice_for(crit).nodes)
            self.ledger.check(got == want, "reexec slice of %s is %s, "
                              "ddg %s" % (crit, got, want))

    def e2e(self, samples: dict) -> dict:
        queries = [q * 1000.0 for q in samples["query"]]
        return {
            "cycle_s": (median(samples["cycle"]), "s"),
            "first_slice_s": (median(samples["first_slice"]), "s"),
            "slice_p50_ms": (percentile(queries, 50), "ms"),
            "slice_p90_ms": (percentile(queries, 90), "ms"),
            "slice_samples": (len(queries), "count"),
        }

    def layers(self, samples: dict) -> dict:
        base = median(samples["base_replay"])
        scaffold = median(samples["scaffold"])
        return {
            "vm.untraced_replay_s": base,
            "pinplay.open_s": self.span_median("pinplay.open"),
            "slicing.criterion_s": self.span_median("slicing.criterion"),
            "slicing.query_s": self.span_median("slicing.query"),
            "slicing.slice_nodes": median(samples["slice_nodes"]),
            "slicing.reexec.scaffold_s": scaffold,
            "slicing.reexec.scaffold.ratio": ratio(scaffold, base),
            "slicing.reexec.prepare_s": median(samples["prepare"]),
            "slicing.reexec.passes": median(samples["passes"]),
            "slicing.reexec.window_steps_per_query": median(
                samples["window_steps_per_query"]),
            "slicing.reexec.hit_frac": median(samples["hit_frac"]),
        }


# -- bug_hunt -----------------------------------------------------------------

class BugHunt(Workload):
    """Expose, hunt to a minimized report, slice the failure, relog."""

    name = "bug_hunt"
    index = "ddg"
    timed = ("cycle", "hunt")

    def setup(self) -> None:
        self.bug = get_bug("pbzip2")
        self.program, self.compile_s = timed_compile(
            lambda: self.bug.build(warmup=self.params["warmup"]))
        small = self.bug.build(warmup=10)
        exposed = self.expose(small, 0)
        if exposed.pinball is not None:
            hunt(exposed.pinball, small, budget=2, minimize_budget=2)

    def expose(self, program, sched: int):
        count = self.params["profile_seeds"]
        return expose_and_record(
            program, profile_seeds=range(sched * count, (sched + 1) * count),
            switch_prob=self.bug.switch_prob)

    def cycle(self, number: int, samples: dict) -> None:
        tr = self.tracer
        sched = (self.seed + number) % self.params["schedules"]
        budget = PINNED["hunt_budget"]
        with tr.span("cycle", trace_id=number) as cycle:
            with tr.span("maple.expose") as exp:
                exposed = self.expose(self.program, sched)
            pinball = exposed.pinball
            if pinball is None:
                raise RuntimeError("maple exposed no failure")
            if tr.recording:
                # The three stages hunt() composes, timed one by one.
                with tr.span("analysis.hunt") as hunted:
                    with tr.span("analysis.hunt.scan"):
                        races, candidates, ctx = scan(pinball, self.program,
                                                      budget=budget)
                    with tr.span("analysis.hunt.evaluate"):
                        rows = evaluate(self.program, candidates, ctx)
                    with tr.span("analysis.hunt.confirm"):
                        known = [RaceFinding.from_race(race, self.program)
                                 for race in races]
                        found = [confirm(self.program, cand, row, ctx,
                                         races=known)
                                 for cand, row in dedupe_rows(candidates,
                                                              rows)]
                findings = [finding for finding, _pb in found]
                minimized = [pb for _finding, pb in found]
                samples["candidates"].append(len(candidates))
            else:
                with tr.span("analysis.hunt") as hunted:
                    result = hunt(pinball, self.program, budget=budget)
                findings = result.findings
                minimized = list(result.minimized.values())
            with tr.span("slicing.session"):
                session = open_session(pinball, self.program, self.index)
            with tr.span("slicing.query") as query:
                criterion = session.failure_criterion()
                dslice = session.slice_for(criterion)
            with tr.span("pinplay.relog") as relog:
                slice_pinball = session.make_slice_pinball(dslice)
        self.ledger.check(
            pinball.meta["failure"]["code"] == PBZIP2_FAILURE,
            "cycle %d: exposed failure %r" % (number,
                                              pinball.meta["failure"]))
        codes = sorted({f.failure_code for f in findings})
        self.ledger.check(codes == [PBZIP2_FAILURE],
                          "cycle %d: hunt confirmed codes %s"
                          % (number, codes))
        for mini in minimized:
            _machine, result = replay(mini, self.program,
                                      engine=PINNED["engine"])
            self.ledger.check(
                (result.failure or {}).get("code") == PBZIP2_FAILURE,
                "cycle %d: minimized pinball ended with %r"
                % (number, result.failure))
        kept = slice_pinball.meta.get("kept_instructions") or 0
        self.ledger.check(criterion in dslice.nodes and kept > 0,
                          "cycle %d: failure slice misses its criterion "
                          "or kept nothing" % number)
        stats = session.stats()
        samples["cycle"].append(cycle.elapsed)
        samples["hunt"].append(hunted.elapsed)
        samples["findings"].append(len(findings))
        samples["kept_frac"].append(ratio(kept, pinball.total_instructions))
        samples["trace"].append(stats["trace_time_sec"])
        samples["preprocess"].append(stats["preprocess_time_sec"])
        samples["ddg_build"].append(stats["ddg_build_time_sec"])
        samples["trace_records"].append(stats["trace_records"])
        samples["ddg_edges"].append(stats["edge_count"])
        samples["slice_nodes"].append(len(dslice.nodes))
        samples["pinball_bytes"].append(pinball.size_bytes())
        if tr.recording:
            self.base_replay(pinball, self.program, samples)
            with tr.span("detect.online", trace_id="base") as det:
                detect_races(pinball, self.program,
                             online=PINNED["detect_online"])
            samples["detect"].append(det.elapsed)

    def e2e(self, samples: dict) -> dict:
        return {
            "cycle_s": (median(samples["cycle"]), "s"),
            "hunt_s": (median(samples["hunt"]), "s"),
        }

    def layers(self, samples: dict) -> dict:
        base = median(samples["base_replay"])
        relog = self.span_median("pinplay.relog")
        detect = median(samples["detect"])
        trace = median(samples["trace"])
        ddg = median(samples["ddg_build"])
        evaluate_s = self.span_median("analysis.hunt.evaluate")
        candidates = median(samples["candidates"])
        return {
            "vm.untraced_replay_s": base,
            "pinplay.pinball_bytes": median(samples["pinball_bytes"]),
            "pinplay.relog_s": relog,
            "pinplay.relog.ratio": ratio(relog, base),
            "pinplay.kept_frac": median(samples["kept_frac"]),
            "slicing.trace_s": trace,
            "slicing.trace.ratio": ratio(trace, base),
            "slicing.trace_records": median(samples["trace_records"]),
            "slicing.preprocess_s": median(samples["preprocess"]),
            "slicing.ddg_build_s": ddg,
            "slicing.ddg_build.ratio": ratio(ddg, base),
            "slicing.ddg_edges": median(samples["ddg_edges"]),
            "slicing.query_s": self.span_median("slicing.query"),
            "slicing.slice_nodes": median(samples["slice_nodes"]),
            "maple.expose_s": self.span_median("maple.expose"),
            "detect.online_s": detect,
            "detect.online.ratio": ratio(detect, base),
            "analysis.hunt.scan_s": self.span_median("analysis.hunt.scan"),
            "analysis.hunt.evaluate_s": evaluate_s,
            "analysis.hunt.confirm_s": self.span_median(
                "analysis.hunt.confirm"),
            "analysis.hunt.candidates": candidates,
            "analysis.hunt.candidates_per_s": ratio(candidates, evaluate_s),
            "analysis.hunt.confirmed_frac": ratio(
                median(samples["findings"]), candidates),
        }


# -- served_mix ---------------------------------------------------------------

#: The served corpus rotates over these kernels.
SERVED_KERNELS = ("blackscholes", "mgrid", "pbzip2", "list_chase")


def served_source(kernel: str, units: int) -> str:
    if kernel == "blackscholes":
        return get_parsec(kernel).source(units=units, nthreads=4)
    if kernel == "mgrid":
        return get_specomp(kernel).source(units=units)
    if kernel == "pbzip2":
        return get_bug(kernel).source(warmup=units)
    return get_pointer(kernel).source(units=units, nthreads=4)


class ServedMix(Workload):
    """Two closed-loop clients against ``repro serve`` over TCP.

    A cycle is one client's debug round on one key: ``last_reads``, a few
    distinct ``slice`` criteria, a verified ``replay`` and a ``record`` of
    one of the seeded record jobs.  Every round has the same shape, so
    the median round is not balanced on a mix of round kinds.  Every
    response is checked: slices against in-process fingerprints of the
    same key and criterion, the rest against in-process results for the
    same recording.
    """

    name = "served_mix"
    index = "ddg"
    clients = 2
    last_reads_count = 8
    switch_prob = 0.2

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.server: Optional[subprocess.Popen] = None
        self.conns: List[DebugClient] = []
        # Served answers, counted per distinct answer, checked in finish().
        # A slice's first answer per (key, criterion) is kept whole; every
        # later answer must equal it (a list compare, cheap enough not to
        # steal the CPU the server needs) and only the first is
        # fingerprinted against the in-process slice.
        self.first_slices: Dict[tuple, list] = {}
        self.slice_counts: Counter = Counter()
        self.served_reads: Dict[str, Counter] = defaultdict(Counter)
        self.served_records: Dict[int, Counter] = defaultdict(Counter)
        self._lock = threading.Lock()

    # -- setup ----------------------------------------------------------

    def _corpus(self) -> None:
        # The stored corpus is the same in every run — the team's shared
        # repository — so which keys are hot, and which pool worker each
        # one's affinity lands on, does not change with the seed.  The
        # seed draws the traffic: the record jobs and every request.
        draw = random.Random("%s:corpus" % self.name)
        units = self.params["units"]
        self.recordings = []
        compile_times = []
        for index in range(self.params["recordings"]):
            kernel = SERVED_KERNELS[index % len(SERVED_KERNELS)]
            # Distinct sizes per kernel keep every source (and so every
            # program name the store links to it) unique.
            size = (units[kernel] + 4 * (index // len(SERVED_KERNELS))
                    + draw.randrange(4))
            source = served_source(kernel, size)
            name = "%s_%d" % (kernel, index)
            started = time.perf_counter()
            program = compile_source(source, name=name)
            compile_times.append(time.perf_counter() - started)
            pinball = record_region(
                program, RandomScheduler(seed=draw.randrange(1 << 16),
                                         switch_prob=self.switch_prob),
                RegionSpec(), engine=PINNED["engine"],
                pinball_format=PINNED["pinball_format"],
                checkpoint_interval=PINNED["checkpoint_interval"])
            self.recordings.append({"name": name, "source": source,
                                    "program": program,
                                    "pinball": pinball})
        self.compile_s = median(compile_times)
        self.jobs = []
        draw = self.rng("jobs")
        for index in range(self.params["record_jobs"]):
            kernel = SERVED_KERNELS[index % len(SERVED_KERNELS)]
            self.jobs.append({"kernel": kernel,
                              "source": served_source(
                                  kernel, units[kernel] + 16
                                  + draw.randrange(4)),
                              "seed": draw.randrange(1 << 16)})
        # Zipf by corpus position: every run has the same popularity
        # structure (the hot keys cycle through all four kernels); the
        # seed draws the request sequence.
        self.key_order = list(range(len(self.recordings)))
        s = self.params["zipf_s"]
        self.zipf_weights = [1.0 / (rank + 1) ** s
                             for rank in range(len(self.key_order))]

    def _start_server(self) -> None:
        store = self.path("store")
        port_file = self.path("port")
        log = open(self.path("serve.log"), "wb")
        cmd = [sys.executable, "-m", "repro", "serve", "--store", store,
               "--port", "0", "--port-file", port_file,
               "--workers", str(PINNED["serve_workers"]),
               "--lru-entries", str(PINNED["serve_lru_entries"]),
               "--shards", str(PINNED["slice_shards"])]
        try:
            self.server = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT,
                env=scrubbed_env([os.path.join(self.repo_root, "src")]))
        finally:
            log.close()
        deadline = time.monotonic() + 60.0
        while not os.path.exists(port_file) or \
                not open(port_file).read().strip():
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("repro serve did not start (see %s)"
                                   % self.path("serve.log"))
            time.sleep(0.02)
        port = int(open(port_file).read())
        self.conns = [DebugClient("127.0.0.1", port)
                      for _ in range(self.clients)]

    def setup(self) -> None:
        self._corpus()
        self._start_server()
        client = self.conns[0]
        pool = self.params["pool"]
        for rec in self.recordings:
            stored = client.put_recording(rec["source"],
                                          rec["pinball"].to_bytes(),
                                          program_name=rec["name"])
            rec["key"] = stored["key"]
        # Warm-up: one last_reads per key opens every session once (so
        # the index cache holds every recording) and yields the pools of
        # criteria the slices are drawn from.
        for rec in self.recordings:
            reads = client.last_reads(rec["key"], count=pool)["reads"]
            rec["pool"] = [tuple(inst) for inst in reads]
        client.replay(self.recordings[0]["key"])

    # -- measurement ----------------------------------------------------

    def _call(self, client, verb: str, samples: dict, fn):
        """One timed request; a raised error counts as a failure."""
        error = None
        with self.tracer.span("serve." + verb) as sp:
            try:
                result = fn(client)
            except (RpcRemoteError, OSError) as exc:
                result, error = None, exc
        self.ledger.check(error is None, "%s: %s" % (verb, error))
        with self._lock:
            samples["latency"].append(sp.elapsed)
            samples[verb].append(sp.elapsed)
            if result is not None:
                samples["ok"].append(1)
        return result

    def _round(self, client, draw: random.Random, samples: dict,
               number: int) -> None:
        rec = self.recordings[draw.choices(self.key_order,
                                           self.zipf_weights)[0]]
        key = rec["key"]
        with self.tracer.span("cycle", trace_id=number) as cycle:
            reads = self._call(client, "last_reads", samples,
                               lambda c: c.last_reads(
                                   key, count=self.last_reads_count))
            if reads is not None:
                with self._lock:
                    self.served_reads[key][
                        tuple(tuple(r) for r in reads["reads"])] += 1
            for crit in draw.sample(rec["pool"],
                                    self.params["slices_per_round"]):
                payload = self._call(
                    client, "slice", samples,
                    lambda c: c.slice(key, instance=list(crit),
                                      index=self.index))
                if payload is not None:
                    nodes = payload["nodes"]
                    with self._lock:
                        first = self.first_slices.setdefault((key, crit),
                                                             nodes)
                        self.slice_counts[(key, crit)] += 1
                    if payload["node_count"] != len(nodes) or nodes != first:
                        self.ledger.reject("served slice of %s at %s: "
                                           "inconsistent payload"
                                           % (key[:12], crit))
            result = self._call(client, "replay", samples,
                                lambda c: c.replay(key))
            if result is not None and not self._replay_ok(rec, result):
                self.ledger.reject("replay of %s: %r" % (rec["name"],
                                                         result))
            job = draw.randrange(len(self.jobs))
            spec = self.jobs[job]
            out = self._call(client, "record", samples,
                             lambda c: c.record(spec["source"],
                                                program_name=spec["kernel"],
                                                seed=spec["seed"],
                                                switch_prob=self.switch_prob))
            if out is not None:
                with self._lock:
                    self.served_records[job][
                        (out["instructions"], out["failure"])] += 1
        with self._lock:
            samples["cycle"].append(cycle.elapsed)

    @staticmethod
    def _replay_ok(rec: dict, result: dict) -> bool:
        pinball = rec["pinball"]
        want_failure = (pinball.meta.get("failure") or {}).get("code")
        got_failure = (result.get("failure") or {}).get("code")
        return (result["steps"] == pinball.total_steps
                and result["output"] == list(pinball.meta.get("output", []))
                and got_failure == want_failure)

    def _client_loop(self, index: int, stop_at: float,
                     draw: random.Random, samples: dict,
                     errors: list) -> None:
        client = self.conns[index]
        rounds = 0
        try:
            while rounds < MIN_CYCLES or time.perf_counter() < stop_at:
                self._round(client, draw, samples,
                            "%d.%d.%d" % (self.cycle_no, index, rounds))
                rounds += 1
        except Exception as exc:   # noqa: BLE001 — reported by measure()
            errors.append(exc)

    def measure(self, seconds: float) -> dict:
        """Closed-loop load from both clients for ``seconds``.

        Timings stay in wall seconds: the served path spends its time in
        five processes and their IPC, and the reference probe, which
        tracks the in-process workloads' slowdowns closely, did not
        track this one (scaling by it widened the run-to-run spread).
        The probes around the window are reported, not applied.
        """
        samples: dict = defaultdict(list)
        draws = [self.rng("client", self.cycle_no, index)
                 for index in range(self.clients)]
        errors: list = []
        before = probe()
        started = time.perf_counter()
        threads = [threading.Thread(
            target=self._client_loop,
            args=(index, started + seconds, draws[index], samples, errors))
            for index in range(self.clients)]
        with quiesced_gc():
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        samples["elapsed"].append(time.perf_counter() - started)
        samples["slowdown"].append(slowdown(before, probe()))
        samples["cycle_wall"] = list(samples["cycle"])
        self.cycle_no += 1
        for exc in errors:
            self.ledger.fail("client: %s: %s" % (type(exc).__name__, exc))
        samples["rss"].append(self.service_rss_mb())
        if self.tracer.recording:
            stats = self.conns[0].stats()
            samples["stats"].append(stats)
            rec = self.recordings[self.key_order[0]]
            for _ in range(3):
                self.base_replay(rec["pinball"], rec["program"], samples)
        return dict(samples)

    def service_rss_mb(self) -> Optional[float]:
        """RSS high-water of the server and its worker processes, in MB."""
        if self.server is None:
            return None
        total_kb = 0
        for pid in [self.server.pid] + _children(self.server.pid):
            total_kb += _vm_hwm_kb(pid)
        return total_kb / 1024.0 if total_kb > 0 else None

    def finish(self) -> None:
        """Check every served answer against the in-process one."""
        sessions = {}
        by_key = {rec["key"]: rec for rec in self.recordings}

        def session_for(key):
            if key not in sessions:
                rec = by_key[key]
                sessions[key] = open_session(rec["pinball"], rec["program"],
                                             self.index)
            return sessions[key]

        for (key, crit), nodes in sorted(self.first_slices.items()):
            got = Counter({fingerprint((n[0], n[1]) for n in nodes):
                           self.slice_counts[(key, crit)]})
            want = fingerprint(session_for(key).slice_for(crit).nodes)
            self._reject_mismatches(got, want, "slice of %s at %s"
                                    % (key[:12], crit))
        for key, got in sorted(self.served_reads.items()):
            want = tuple(tuple(inst) for inst in
                         session_for(key).last_reads(self.last_reads_count))
            self._reject_mismatches(got, want, "last_reads of %s" % key[:12])
        for job, got in sorted(self.served_records.items()):
            spec = self.jobs[job]
            program = compile_source(spec["source"], name=spec["kernel"])
            pinball = record_region(
                program, RandomScheduler(seed=spec["seed"],
                                         switch_prob=self.switch_prob),
                RegionSpec(), engine=PINNED["engine"])
            want = (pinball.total_instructions,
                    (pinball.meta.get("failure") or {}).get("code"))
            self._reject_mismatches(got, want, "record of job %d" % job)

    def _reject_mismatches(self, got: Counter, want, what: str) -> None:
        for answer, count in got.items():
            if answer != want:
                self.ledger.reject("served %s: %r, in-process %r"
                                   % (what, answer, want), count)

    def close(self) -> None:
        for client in self.conns[1:]:
            client.close()
        if self.server is not None and self.server.poll() is None:
            try:
                if self.conns:
                    self.conns[0].shutdown()
            except (RpcRemoteError, OSError):
                self.server.terminate()
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        if self.conns:
            self.conns[0].close()

    # -- metrics --------------------------------------------------------

    def e2e(self, samples: dict) -> dict:
        latency = [s * 1000.0 for s in samples["latency"]]
        return {
            "cycle_s": (median(samples["cycle"]), "s"),
            "served_ops_per_s": (len(samples["ok"]) / samples["elapsed"][0],
                                 "ops/s"),
            "served_p50_ms": (percentile(latency, 50), "ms"),
            "served_p99_ms": (percentile(latency, 99), "ms"),
            "served_samples": (len(latency), "count"),
            "peak_rss_mb": (samples["rss"][0], "MB"),
        }

    def layers(self, samples: dict) -> dict:
        stats = samples["stats"][0]
        hits = misses = cache_hits = cache_misses = 0
        for worker in stats.get("worker_sessions", []):
            sessions = worker.get("sessions", {})
            hits += sessions.get("hits", 0)
            misses += sessions.get("misses", 0)
            cache = sessions.get("index_cache", {})
            cache_hits += cache.get("hits", 0)
            cache_misses += cache.get("misses", 0)
        out = {
            "vm.untraced_replay_s": median(samples["base_replay"]),
            "serve.sessions.hit_frac": ratio(hits, hits + misses),
            "serve.index_cache.hits": cache_hits,
            "serve.index_cache.misses": cache_misses,
            "serve.pool.busy_rejects": stats["pool"].get("rejected", 0),
            "serve.errors": stats["server"].get("errors", 0),
        }
        for verb in ("slice", "last_reads", "replay", "record"):
            out["serve.%s.p50_ms" % verb] = percentile(
                [s * 1000.0 for s in samples[verb]], 50)
        return out


def _children(pid: int) -> List[int]:
    """Direct child pids of ``pid`` (Linux ``/proc``)."""
    out: List[int] = []
    task_dir = "/proc/%d/task" % pid
    for tid in os.listdir(task_dir):
        with open(os.path.join(task_dir, tid, "children")) as handle:
            out.extend(int(child) for child in handle.read().split())
    return out


def _vm_hwm_kb(pid: int) -> int:
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


WORKLOADS = {cls.name: cls for cls in (DebugCycle, QueryStorm, BugHunt,
                                        ServedMix)}
