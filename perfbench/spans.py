"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded only by the benchmark's own code, around calls into
each layer's public functions; nothing inside ``repro`` is instrumented
(``repro.obs`` stays off).  Every span carries the id of the cycle or
request it belongs to, its parent span, and its start and end on the
``perf_counter`` clock.  Spans stay in memory and are written out once,
at the end of the run.

A span always measures its own elapsed time, whether or not recording
is on, so the untraced and traced halves of a run execute the same
timing code and differ only by the append to the span list.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Dict, List, Optional


class Span:
    """One timed interval; ``elapsed`` is valid after the ``with`` block."""

    __slots__ = ("name", "trace_id", "span_id", "parent", "start", "end",
                 "_tracer")

    def __init__(self, tracer: "Tracer", name: str, trace_id) -> None:
        self._tracer = tracer
        self.name = name
        self.trace_id = trace_id
        self.span_id = 0
        self.parent: Optional[int] = None
        self.start = 0.0
        self.end = 0.0

    @property
    def elapsed(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end = time.perf_counter()
        self._tracer._pop(self)


class Tracer:
    """Collects spans when ``recording`` is true; always times them.

    The parent stack is per thread, so the served workload's client
    threads each build their own span trees.
    """

    def __init__(self) -> None:
        self.recording = False
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name: str, trace_id=None) -> Span:
        return Span(self, name, trace_id)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            span.parent = stack[-1].span_id
            if span.trace_id is None:
                span.trace_id = stack[-1].trace_id
        stack.append(span)
        if self.recording:
            span.span_id = next(self._ids)

    def _pop(self, span: Span) -> None:
        self._stack().pop()
        if self.recording:
            with self._lock:
                self.spans.append(span)

    # -- analysis ------------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        """Elapsed seconds of every recorded span called ``name``."""
        return [span.elapsed for span in self.spans if span.name == name]

    def self_times(self) -> Dict[str, float]:
        """Total self time per layer, summed over all recorded spans.

        A span's self time is its duration minus the part of it that its
        child spans cover (children never overlap: each thread nests its
        spans strictly).  The layer is the span name's first component,
        so ``pinplay.record`` and ``pinplay.replay`` both count towards
        ``pinplay`` (see :func:`layer_of`).
        """
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = (child_time.get(span.parent, 0.0)
                                           + span.elapsed)
        totals: Dict[str, float] = {}
        for span in self.spans:
            layer = layer_of(span.name)
            own = span.elapsed - child_time.get(span.span_id, 0.0)
            totals[layer] = totals.get(layer, 0.0) + max(0.0, own)
        return totals

    def dump(self, path: str, stamp: dict) -> None:
        """Write every recorded span, plus the run's stamp, as JSON."""
        origin = min((span.start for span in self.spans), default=0.0)
        rows = [{"name": span.name, "trace": span.trace_id,
                 "id": span.span_id, "parent": span.parent,
                 "start": span.start - origin, "end": span.end - origin}
                for span in sorted(self.spans, key=lambda s: s.start)]
        with open(path, "w") as handle:
            json.dump({"stamp": stamp, "spans": rows}, handle)


def layer_of(name: str) -> str:
    """The layer a span belongs to: the module before the first dot
    (``analysis.hunt.scan`` -> ``analysis``), or ``bench`` for the
    benchmark's own root spans (``cycle``)."""
    if "." not in name:
        return "bench"
    return name.split(".", 1)[0]
